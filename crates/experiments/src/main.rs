//! Command-line entry point of the experiment harness.
//!
//! ```text
//! autopower-experiments [FLAG ...] [EXPERIMENT ...]
//! ```
//!
//! `EXPERIMENT` is one of `obs1`, `table1`, `fig4`, `fig5`, `fig6`, `fig7`, `fig8`,
//! `table4`, `ablation`, `sweep`, `pareto`, `xval`, `compare`, `save-model`, or
//! `all` (the default; `all` does not include `save-model`, which writes a file).
//! Flags and experiment names may appear in any order, and a value flag takes
//! its value either as the next argument or inline (`--threads 4` or
//! `--threads=4`).  `--help` prints the full flag list.
//!
//! Every flag is one row of [`FLAGS`]: its name, the kind of value it takes
//! and the experiments it applies to.  One loop parses every row the same
//! way, so the usage line, the value checks and the refusals cannot drift
//! apart.  The main knobs: `--fast` switches to the reduced settings used by
//! tests and benches; `--threads N` sets the worker count of the
//! corpus-generation and sweep pipelines (default: one per available core,
//! `1` = serial); `--count N` sets how many generated configurations the
//! `sweep`, `pareto` and `compare` experiments score; `--model NAME` selects
//! the registry model the `sweep`, `pareto`, `table4`, `xval` and
//! `save-model` verbs run under.
//!
//! Model persistence: `save-model` trains `--model` on the sweep corpus and
//! writes it to `--out FILE` (default `<model>.apm`); `--load-model FILE`
//! makes `sweep`, `pareto` and `table4` restore that trained model instead of
//! retraining — the results are bit-identical to the retrained run.
//!
//! Streaming sweeps: `sweep --stream` folds the sampled configurations through
//! the bounded-memory aggregator (same report, O(top-k + sketches + one chunk)
//! memory) and `sweep --full` streams the **entire** enumerable design space
//! instead of `--count` samples.  `--chunk N` sets the configurations per
//! chunk, `--checkpoint FILE` snapshots the aggregate after every chunk,
//! `--resume` continues from that snapshot (byte-identical final report), and
//! `--max-chunks N` stops after N chunks — the deterministic stand-in for an
//! interrupt, used by the CI resume smoke.  `pareto` streams the space and
//! prints the power-vs-IPC-vs-area-proxy non-dominated frontier.  Process-local
//! diagnostics (cache hit rates, peak retained points) go to stderr so
//! one-shot and resumed stdout compare equal.
//!
//! Unknown or duplicate experiment names, unknown model names, bad values and
//! flags given to experiments they do not apply to are rejected before any
//! corpus is generated.

use autopower::{CorpusSpec, ModelKind, ParetoConstraints};
use autopower_experiments::{
    ExperimentSettings, Experiments, ModelSource, StreamOptions, StreamScope, StreamSweepResult,
    SurrogateOptions, SurrogateSpec, SweepRequest, DEFAULT_AUDIT_RATE, DEFAULT_SURROGATE_TRAIN,
    DEFAULT_SWEEP_COUNT,
};
use std::path::PathBuf;
use std::process::ExitCode;

const ALL_EXPERIMENTS: [&str; 13] = [
    "obs1", "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "table4", "ablation", "sweep",
    "pareto", "xval", "compare",
];

/// The verb that trains and saves a model instead of running an experiment
/// (deliberately not part of `all`: it writes a file).
const SAVE_MODEL: &str = "save-model";

/// The experiments a flag applies to, and how it refuses every other one:
/// `"{flags} apply to {verbs} only; '{experiment}' {reason}"`.
struct Verbs {
    /// The flags the refusal names; `None` names just the flag given.
    group: Option<&'static str>,
    names: &'static [&'static str],
    /// Why any other experiment has no use for the flag.
    reason: &'static str,
}

/// `--load-model`: the experiments that consume exactly one trained model
/// (everything else retrains by design — `xval` per fold, `compare` for every
/// registry entry).
const LOADABLE: Verbs = Verbs {
    group: None,
    names: &["sweep", "table4", "pareto"],
    reason: "retrains by design",
};

/// `--no-sim-cache`: the experiments that run the batch sweep engine and
/// therefore memoize simulations across configurations.  The flag is an audit
/// knob — the scored points are bit-identical either way.
const SIM_CACHE: Verbs = Verbs {
    group: None,
    names: &["sweep", "compare", "pareto"],
    reason: "never caches simulations",
};

/// `--chunk`: any user of the sweep engine.
const ENGINE: Verbs = Verbs {
    reason: "does not run the sweep engine",
    ..SIM_CACHE
};

/// `--stream` / `--full`: the experiments that can stream the design space.
const STREAM: Verbs = Verbs {
    group: None,
    names: &["sweep", "pareto"],
    reason: "does not stream",
};

/// `--checkpoint` / `--resume` / `--max-chunks`: only the streaming sweep
/// persists its aggregate (`pareto` re-streams cheaply and keeps no
/// checkpoint file).
const CHECKPOINT: Verbs = Verbs {
    group: Some("--checkpoint/--resume/--max-chunks"),
    names: &["sweep"],
    reason: "keeps no checkpoint",
};

/// `--surrogate` and its companions: the design-space scoring verbs.
/// Everything else reproduces paper numbers and must simulate exactly.
const SURROGATE: Verbs = Verbs {
    group: None,
    names: &["sweep", "pareto"],
    reason: "always simulates exactly",
};

/// `--max-power` / `--min-ipc`: only the frontier fold filters by feasibility.
const CONSTRAINT: Verbs = Verbs {
    group: Some("--max-power/--min-ipc"),
    names: &["pareto"],
    reason: "computes no frontier",
};

/// The value a flag takes, and where the parsed value goes.
enum Kind {
    /// No value; `--flag=VALUE` is an unknown flag.
    Switch(fn(&mut CliArgs)),
    /// A non-negative integer.
    Count(fn(&mut CliArgs, usize)),
    /// A positive integer.
    Positive(fn(&mut CliArgs, usize)),
    /// A finite fraction in `(0, 1]`.
    Fraction(fn(&mut CliArgs, f64)),
    /// Any number (domain checks follow once every flag is known); the
    /// string is its placeholder in the usage line.
    Number(&'static str, fn(&mut CliArgs, f64)),
    /// A [`ModelKind`] registry name.
    Model(fn(&mut CliArgs, ModelKind)),
    /// A file path.
    File(fn(&mut CliArgs, String)),
}

impl Kind {
    /// The value's placeholder in the usage line (`None` for a switch).
    fn placeholder(&self) -> Option<&'static str> {
        match self {
            Kind::Switch(_) => None,
            Kind::Count(_) | Kind::Positive(_) => Some("N"),
            Kind::Fraction(_) => Some("R"),
            Kind::Number(placeholder, _) => Some(placeholder),
            Kind::Model(_) => Some("NAME"),
            Kind::File(_) => Some("FILE"),
        }
    }

    /// Parses `value` for `flag` and stores it.
    fn apply(&self, args: &mut CliArgs, flag: &str, value: String) -> Result<(), String> {
        let bad = |expects: &str| format!("{flag} expects {expects}, got '{value}'\n{}", usage());
        match *self {
            Kind::Switch(set) => set(args),
            Kind::Count(set) => set(
                args,
                value.parse().map_err(|_| bad("a non-negative integer"))?,
            ),
            Kind::Positive(set) => match value.parse() {
                Ok(n) if n > 0 => set(args, n),
                _ => return Err(bad("a positive integer")),
            },
            // Zero is rejected: a surrogate sweep that can never audit would
            // only fail later with "audited zero configurations".
            Kind::Fraction(set) => match value.parse::<f64>() {
                Ok(r) if r.is_finite() && r > 0.0 && r <= 1.0 => set(args, r),
                _ => return Err(bad("a fraction in (0, 1]")),
            },
            Kind::Number(_, set) => set(args, value.parse().map_err(|_| bad("a number"))?),
            Kind::Model(set) => set(
                args,
                value.parse().map_err(|e| format!("{e}\n{}", usage()))?,
            ),
            Kind::File(set) => set(args, value),
        }
        Ok(())
    }
}

/// One command-line flag.
struct Flag {
    name: &'static str,
    kind: Kind,
    /// The experiments the flag applies to; `None` for every experiment.
    verbs: Option<&'static Verbs>,
}

const fn flag(name: &'static str, kind: Kind, verbs: Option<&'static Verbs>) -> Flag {
    Flag { name, kind, verbs }
}

/// Every flag the harness takes, in usage-line order.  Refusals of flags
/// given to experiments they do not apply to are checked in this order too.
/// `--out` applies wherever `save-model` is requested: `parse_args` checks it.
const FLAGS: &[Flag] = &[
    flag("--fast", Kind::Switch(|a| a.fast = true), None),
    flag("--threads", Kind::Count(|a, n| a.threads = n), None),
    flag(
        "--count",
        Kind::Positive(|a, n| (a.count, a.count_explicit) = (n, true)),
        None,
    ),
    flag(
        "--model",
        Kind::Model(|a, kind| (a.model, a.model_explicit) = (kind, true)),
        None,
    ),
    flag(
        "--load-model",
        Kind::File(|a, path| a.load_model = Some(path)),
        Some(&LOADABLE),
    ),
    flag("--out", Kind::File(|a, path| a.out = Some(path)), None),
    flag(
        "--no-sim-cache",
        Kind::Switch(|a| a.sim_cache = false),
        Some(&SIM_CACHE),
    ),
    flag("--stream", Kind::Switch(|a| a.stream = true), Some(&STREAM)),
    flag("--full", Kind::Switch(|a| a.full = true), Some(&STREAM)),
    flag("--chunk", Kind::Positive(|a, n| a.chunk = n), Some(&ENGINE)),
    flag(
        "--checkpoint",
        Kind::File(|a, path| a.checkpoint = Some(path)),
        Some(&CHECKPOINT),
    ),
    flag(
        "--resume",
        Kind::Switch(|a| a.resume = true),
        Some(&CHECKPOINT),
    ),
    flag(
        "--max-chunks",
        Kind::Positive(|a, n| a.max_chunks = n as u64),
        Some(&CHECKPOINT),
    ),
    flag(
        "--surrogate",
        Kind::Switch(|a| a.surrogate = true),
        Some(&SURROGATE),
    ),
    flag(
        "--surrogate-train",
        Kind::Positive(|a, n| a.surrogate_train = Some(n)),
        Some(&SURROGATE),
    ),
    flag(
        "--audit-rate",
        Kind::Fraction(|a, r| a.audit_rate = Some(r)),
        Some(&SURROGATE),
    ),
    flag(
        "--save-surrogate",
        Kind::File(|a, path| a.save_surrogate = Some(path)),
        Some(&SURROGATE),
    ),
    flag(
        "--load-surrogate",
        Kind::File(|a, path| a.load_surrogate = Some(path)),
        Some(&SURROGATE),
    ),
    flag(
        "--max-power",
        Kind::Number("MW", |a, p| a.max_power = Some(p)),
        Some(&CONSTRAINT),
    ),
    flag(
        "--min-ipc",
        Kind::Number("IPC", |a, i| a.min_ipc = Some(i)),
        Some(&CONSTRAINT),
    ),
];

/// The usage string, with the flag, experiment and model lists derived from
/// [`FLAGS`], [`ALL_EXPERIMENTS`] and [`ModelKind::ALL`] so help text cannot
/// drift from the registries.
fn usage() -> String {
    let flags: Vec<String> = FLAGS
        .iter()
        .map(|flag| match flag.kind.placeholder() {
            Some(value) => format!("[{} {value}]", flag.name),
            None => format!("[{}]", flag.name),
        })
        .collect();
    let models: Vec<&str> = ModelKind::ALL
        .iter()
        .map(|kind| kind.registry_name())
        .collect();
    format!(
        "usage: autopower-experiments {} [{}|{SAVE_MODEL}|all ...]\n\
         models: {} (default: {})\n\
         {SAVE_MODEL} trains --model and writes it to --out (default <model>.apm); \
         --load-model applies to {} only; --no-sim-cache disables sweep simulation \
         memoization ({} only, bit-identical output)\n\
         streaming ({} only): --stream folds with bounded memory, --full streams the whole \
         enumerable space (instead of --count samples), --chunk sets configurations per \
         chunk; --checkpoint writes a snapshot after every chunk, --resume continues from \
         it (byte-identical report), --max-chunks stops after N chunks ({} only)\n\
         surrogate ({} only): --surrogate scores with a learned activity surrogate and \
         simulates only a deterministic --audit-rate fraction (default {DEFAULT_AUDIT_RATE}, \
         in (0, 1]) exactly to report the error bound; --surrogate-train N sets the oracle \
         training-set size (default {DEFAULT_SURROGATE_TRAIN}); --save-surrogate/\
         --load-surrogate persist the trained surrogate\n\
         pareto feasibility ({} only): --max-power keeps configurations predicted at or \
         under the bound (mW), --min-ipc keeps those at or above the IPC bound; both are \
         applied before the frontier fold",
        flags.join(" "),
        ALL_EXPERIMENTS.join("|"),
        models.join(", "),
        ModelKind::AutoPower,
        LOADABLE.names.join("/"),
        SIM_CACHE.names.join("/"),
        STREAM.names.join("/"),
        CHECKPOINT.names.join("/"),
        SURROGATE.names.join("/"),
        CONSTRAINT.names.join("/"),
    )
}

/// Everything the command line selects: settings knobs and the experiment list.
#[derive(Debug)]
struct CliArgs {
    fast: bool,
    threads: usize,
    count: usize,
    model: ModelKind,
    /// Whether `--model` was given explicitly (a loaded model of a different
    /// kind is then a hard error instead of silently winning).
    model_explicit: bool,
    /// Path to a saved model to restore instead of retraining (`sweep`,
    /// `pareto`, `table4`).
    load_model: Option<String>,
    /// Output path of the `save-model` verb.
    out: Option<String>,
    /// Whether the sweep experiments memoize simulations across
    /// configurations (`--no-sim-cache` clears it).
    sim_cache: bool,
    /// Whether `--count` was given explicitly (conflicts with `--full`, which
    /// makes the count meaningless).
    count_explicit: bool,
    /// `--stream`: fold the sweep through the bounded-memory aggregator.
    stream: bool,
    /// `--full`: stream the whole enumerable design space.
    full: bool,
    /// `--chunk N`: configurations per streamed chunk (`0` = engine default).
    chunk: usize,
    /// `--checkpoint FILE`: snapshot the aggregate after every chunk.
    checkpoint: Option<String>,
    /// `--resume`: continue from the `--checkpoint` file.
    resume: bool,
    /// `--max-chunks N`: stop (checkpointed) after N chunks (`0` = no limit).
    max_chunks: u64,
    /// `--surrogate`: score the sweep with a learned activity surrogate,
    /// simulating only the audited fraction exactly.
    surrogate: bool,
    /// `--surrogate-train N`: oracle training-set size (`None` = default).
    surrogate_train: Option<usize>,
    /// `--audit-rate R`: deterministic fraction of swept configurations
    /// simulated exactly (`None` = default).
    audit_rate: Option<f64>,
    /// `--save-surrogate FILE`: persist the trained surrogate.
    save_surrogate: Option<String>,
    /// `--load-surrogate FILE`: restore a surrogate instead of training.
    load_surrogate: Option<String>,
    /// `--max-power MW`: pareto feasibility bound on mean total power.
    max_power: Option<f64>,
    /// `--min-ipc IPC`: pareto feasibility bound on mean IPC.
    min_ipc: Option<f64>,
    help: bool,
    requested: Vec<String>,
}

impl CliArgs {
    /// Whether the `sweep` verb should stream instead of materializing: any
    /// streaming-only capability being asked for implies it.
    fn wants_streaming_sweep(&self) -> bool {
        self.stream || self.full || self.checkpoint.is_some() || self.resume
    }

    /// The scope streaming verbs walk.
    fn stream_scope(&self) -> StreamScope {
        if self.full {
            StreamScope::Full
        } else {
            StreamScope::Sampled(self.count)
        }
    }

    /// The checkpoint/interrupt options of a streaming sweep.
    fn stream_options(&self) -> StreamOptions {
        StreamOptions {
            checkpoint: self.checkpoint.as_ref().map(PathBuf::from),
            resume: self.resume,
            max_chunks: self.max_chunks,
        }
    }

    /// How the surrogate is acquired (`--surrogate-train` /
    /// `--load-surrogate` / `--save-surrogate`).
    fn surrogate_options(&self) -> SurrogateOptions {
        SurrogateOptions {
            train_count: self.surrogate_train.unwrap_or(DEFAULT_SURROGATE_TRAIN),
            load: self.load_surrogate.as_ref().map(PathBuf::from),
            save: self.save_surrogate.as_ref().map(PathBuf::from),
        }
    }

    /// The audited fraction of a surrogate sweep.
    fn effective_audit_rate(&self) -> f64 {
        self.audit_rate.unwrap_or(DEFAULT_AUDIT_RATE)
    }

    /// The pareto feasibility bounds (validated at parse time).
    fn constraints(&self) -> ParetoConstraints {
        ParetoConstraints {
            max_power: self.max_power,
            min_ipc: self.min_ipc,
        }
    }
}

/// Parses the argument list; flags and experiment names may be interleaved freely.
///
/// Experiment names are validated against [`ALL_EXPERIMENTS`] and de-duplicated
/// here, at parse time — a typo fails fast with the usage string instead of
/// surfacing only after minutes of corpus generation.  Flag values are checked
/// as they are read; the rules that span several flags follow, then every
/// given flag is checked against the experiments it applies to.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<CliArgs, String> {
    let mut parsed = CliArgs {
        fast: false,
        threads: 0,
        count: DEFAULT_SWEEP_COUNT,
        model: ModelKind::AutoPower,
        model_explicit: false,
        load_model: None,
        out: None,
        sim_cache: true,
        count_explicit: false,
        stream: false,
        full: false,
        chunk: 0,
        checkpoint: None,
        resume: false,
        max_chunks: 0,
        surrogate: false,
        surrogate_train: None,
        audit_rate: None,
        save_surrogate: None,
        load_surrogate: None,
        max_power: None,
        min_ipc: None,
        help: false,
        requested: Vec::new(),
    };
    let mut given: Vec<&str> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if arg == "--help" || arg == "-h" {
            parsed.help = true;
        } else if arg.starts_with('-') {
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_owned())),
                None => (arg.as_str(), None),
            };
            let flag = FLAGS
                .iter()
                .find(|flag| flag.name == name)
                .filter(|flag| inline.is_none() || flag.kind.placeholder().is_some())
                .ok_or_else(|| format!("unknown flag '{arg}'\n{}", usage()))?;
            let value = match (flag.kind.placeholder(), inline) {
                (None, _) => String::new(),
                (Some(_), Some(value)) => value,
                (Some(placeholder), None) => iter.next().ok_or_else(|| {
                    let needs = if placeholder == "FILE" {
                        "a file path"
                    } else {
                        "a value"
                    };
                    format!("{} needs {needs}\n{}", flag.name, usage())
                })?,
            };
            flag.kind.apply(&mut parsed, flag.name, value)?;
            given.push(flag.name);
        } else if arg == "all" || arg == SAVE_MODEL || ALL_EXPERIMENTS.contains(&arg.as_str()) {
            if !parsed.requested.contains(&arg) {
                parsed.requested.push(arg);
            }
        } else {
            return Err(format!("unknown experiment '{arg}'\n{}", usage()));
        }
    }
    if parsed.requested.is_empty() || parsed.requested.iter().any(|a| a == "all") {
        let keep_save = parsed.requested.iter().any(|a| a == SAVE_MODEL);
        parsed.requested = ALL_EXPERIMENTS.iter().map(|s| (*s).to_owned()).collect();
        if keep_save {
            parsed.requested.push(SAVE_MODEL.to_owned());
        }
    }
    let refuse = |message: &str| Err(format!("{message}\n{}", usage()));
    if parsed.out.is_some() && !parsed.requested.iter().any(|a| a == SAVE_MODEL) {
        return refuse(&format!("--out only makes sense with {SAVE_MODEL}"));
    }
    if parsed.full && parsed.count_explicit {
        return refuse("--full streams the whole design space; --count does not apply");
    }
    if parsed.resume && parsed.checkpoint.is_none() {
        return refuse("--resume requires --checkpoint FILE");
    }
    if parsed.max_chunks > 0 && parsed.checkpoint.is_none() {
        return refuse("--max-chunks stops a checkpointed run; it requires --checkpoint FILE");
    }
    for (flag, present) in [
        ("--surrogate-train", parsed.surrogate_train.is_some()),
        ("--audit-rate", parsed.audit_rate.is_some()),
        ("--save-surrogate", parsed.save_surrogate.is_some()),
        ("--load-surrogate", parsed.load_surrogate.is_some()),
    ] {
        if present && !parsed.surrogate {
            return refuse(&format!(
                "{flag} configures the surrogate backend; it requires --surrogate"
            ));
        }
    }
    if parsed.save_surrogate.is_some() && parsed.load_surrogate.is_some() {
        return refuse(
            "--save-surrogate with --load-surrogate would rewrite the file it just read; \
             pick one",
        );
    }
    if parsed.surrogate_train.is_some() && parsed.load_surrogate.is_some() {
        return refuse(
            "--surrogate-train sizes a fresh training run; it conflicts with --load-surrogate",
        );
    }
    for flag in FLAGS.iter().filter(|flag| given.contains(&flag.name)) {
        let Some(verbs) = flag.verbs else { continue };
        if let Some(bad) = parsed
            .requested
            .iter()
            .find(|name| !verbs.names.contains(&name.as_str()))
        {
            let subject = match verbs.group {
                Some(group) => format!("{group} apply"),
                None => format!("{} applies", flag.name),
            };
            return refuse(&format!(
                "{subject} to {} only; '{bad}' {}",
                verbs.names.join("/"),
                verbs.reason
            ));
        }
    }
    if let Err(message) = parsed.constraints().validate() {
        return refuse(&message);
    }
    Ok(parsed)
}

/// Restores the `--load-model` file and checks it against an explicit
/// `--model` flag (a silent kind mismatch would be a confusing foot-gun).
fn load_cli_model(args: &CliArgs, path: &str) -> Result<Box<dyn autopower::PowerModel>, String> {
    let model = autopower::load_model(path).map_err(|e| format!("--load-model {path}: {e}"))?;
    if args.model_explicit && model.kind() != args.model {
        return Err(format!(
            "--load-model {path} holds a '{}' model but --model asked for '{}'",
            model.kind(),
            args.model
        ));
    }
    Ok(model)
}

/// Prints a streaming-sweep result: the resume-invariant report to stdout,
/// the process-local diagnostics (cache hit rate, peak retained points) to
/// stderr — so a resumed run's stdout is byte-identical to a one-shot run's.
fn print_streaming(result: &StreamSweepResult) {
    println!("{result}\n");
    eprintln!("{}", result.diagnostics());
}

fn run_one(experiments: &Experiments, name: &str, args: &CliArgs) -> Result<(), String> {
    let err = |e: autopower::AutoPowerError| format!("{name}: {e}");
    match name {
        SAVE_MODEL => {
            let model = experiments.train_sweep_model(args.model).map_err(err)?;
            let path = args
                .out
                .clone()
                .unwrap_or_else(|| format!("{}.apm", args.model));
            autopower::save_model(model.as_ref(), &path).map_err(err)?;
            println!(
                "saved trained '{}' model to {path} (format v{})\n",
                args.model,
                autopower::MODEL_FORMAT_VERSION
            );
        }
        "obs1" => println!("{}\n", experiments.obs1_breakdown()),
        "table1" => println!("{}\n", experiments.table1_hardware_model()),
        "fig4" => println!(
            "{}\n",
            experiments.fig4_accuracy_two_configs().map_err(err)?
        ),
        "fig5" => println!(
            "{}\n",
            experiments.fig5_accuracy_three_configs().map_err(err)?
        ),
        "fig6" => println!("{}\n", experiments.fig6_training_sweep().map_err(err)?),
        "fig7" => println!("{}\n", experiments.fig7_clock_detail()),
        "fig8" => println!("{}\n", experiments.fig8_sram_detail()),
        "ablation" => println!("{}\n", experiments.ablation_study()),
        "sweep" | "pareto" | "table4" => {
            // `--surrogate` is refused at parse time for `table4`.
            let surrogate = args
                .surrogate
                .then(|| experiments.sweep_surrogate(&args.surrogate_options()))
                .transpose()
                .map_err(err)?;
            let loaded = args
                .load_model
                .as_deref()
                .map(|path| load_cli_model(args, path))
                .transpose()?;
            let request = SweepRequest {
                model: match &loaded {
                    Some(model) => ModelSource::Loaded(model.as_ref()),
                    None => ModelSource::Train(args.model),
                },
                scope: args.stream_scope(),
                surrogate: surrogate.as_ref().map(|surrogate| SurrogateSpec {
                    surrogate,
                    audit_rate: args.effective_audit_rate(),
                }),
            };
            match name {
                "table4" => println!(
                    "{}\n",
                    experiments
                        .table4_power_trace_with(request.model)
                        .map_err(err)?
                ),
                "pareto" => {
                    let result = experiments
                        .pareto_frontier(&request, args.constraints())
                        .map_err(err)?;
                    println!("{result}\n");
                    eprintln!("{}", result.diagnostics());
                }
                _ if args.wants_streaming_sweep() => print_streaming(
                    &experiments
                        .streaming_sweep(&request, &args.stream_options())
                        .map_err(err)?,
                ),
                _ => println!(
                    "{}\n",
                    experiments.design_space_sweep(&request).map_err(err)?
                ),
            }
        }
        "xval" => println!(
            "{}\n",
            experiments
                .cross_validation_model(args.model)
                .map_err(err)?
        ),
        "compare" => println!(
            "{}\n",
            experiments.model_comparison(args.count).map_err(err)?
        ),
        other => return Err(format!("unknown experiment '{other}'\n{}", usage())),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }

    let settings = if args.fast {
        ExperimentSettings::fast()
    } else {
        ExperimentSettings::paper()
    }
    .with_threads(args.threads)
    .with_sim_cache(args.sim_cache)
    .with_chunk(args.chunk);
    let experiments = Experiments::new(settings);
    // Resolve through CorpusSpec so the banner always matches the worker count
    // generation will actually use.
    let effective = CorpusSpec::paper()
        .threads(args.threads)
        .effective_threads();
    let label = if args.threads == 0 {
        format!("{effective} (auto)")
    } else {
        effective.to_string()
    };
    println!(
        "AutoPower experiment harness ({} settings, {label} corpus worker{})\n",
        if args.fast { "fast" } else { "paper" },
        if effective == 1 { "" } else { "s" },
    );

    for name in &args.requested {
        if let Err(message) = run_one(&experiments, name, &args) {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn flags_are_order_independent() {
        for permutation in [
            &["--fast", "--threads", "3", "fig4"][..],
            &["fig4", "--threads", "3", "--fast"][..],
            &["--threads=3", "fig4", "--fast"][..],
        ] {
            let parsed = parse_args(args(permutation)).expect("valid arguments");
            assert!(parsed.fast);
            assert_eq!(parsed.threads, 3);
            assert_eq!(parsed.requested, vec!["fig4".to_owned()]);
            assert!(!parsed.help);
        }
    }

    #[test]
    fn help_wins_regardless_of_position() {
        for permutation in [&["--fast", "--help"][..], &["--help", "--fast", "fig4"][..]] {
            let parsed = parse_args(args(permutation)).expect("valid arguments");
            assert!(parsed.help);
        }
    }

    #[test]
    fn empty_or_all_expands_to_every_experiment() {
        let default = parse_args(args(&[])).expect("valid arguments");
        assert_eq!(default.requested.len(), ALL_EXPERIMENTS.len());
        let all = parse_args(args(&["all", "--fast"])).expect("valid arguments");
        assert_eq!(all.requested.len(), ALL_EXPERIMENTS.len());
    }

    #[test]
    fn bad_flags_and_thread_counts_are_rejected() {
        assert!(parse_args(args(&["--nope"])).is_err());
        assert!(parse_args(args(&["--threads"])).is_err());
        assert!(parse_args(args(&["--threads", "many"])).is_err());
        assert!(parse_args(args(&["--threads=-2"])).is_err());
        assert!(parse_args(args(&["--count"])).is_err());
        assert!(parse_args(args(&["--count", "lots"])).is_err());
        assert!(parse_args(args(&["--count", "0"])).is_err());
        assert!(parse_args(args(&["--count=0"])).is_err());
    }

    #[test]
    fn unknown_experiments_fail_at_parse_time() {
        let err = parse_args(args(&["fig4", "fig9"])).unwrap_err();
        assert!(err.contains("unknown experiment 'fig9'"));
        assert!(err.contains("usage:"), "error must repeat the usage line");
    }

    #[test]
    fn duplicate_experiments_run_once() {
        let parsed = parse_args(args(&["fig4", "sweep", "fig4"])).expect("valid arguments");
        assert_eq!(
            parsed.requested,
            vec!["fig4".to_owned(), "sweep".to_owned()]
        );
    }

    #[test]
    fn sweep_count_flag_is_parsed_in_both_forms() {
        let parsed = parse_args(args(&["sweep"])).expect("valid arguments");
        assert_eq!(parsed.count, DEFAULT_SWEEP_COUNT);
        let parsed = parse_args(args(&["sweep", "--count", "200"])).expect("valid arguments");
        assert_eq!(parsed.count, 200);
        let parsed = parse_args(args(&["--count=64", "sweep"])).expect("valid arguments");
        assert_eq!(parsed.count, 64);
    }

    #[test]
    fn model_flag_selects_a_registry_model_in_both_forms() {
        let parsed = parse_args(args(&["sweep"])).expect("valid arguments");
        assert_eq!(parsed.model, ModelKind::AutoPower);
        let parsed =
            parse_args(args(&["sweep", "--model", "mcpat-calib"])).expect("valid arguments");
        assert_eq!(parsed.model, ModelKind::McpatCalib);
        let parsed =
            parse_args(args(&["--model=autopower-minus", "xval"])).expect("valid arguments");
        assert_eq!(parsed.model, ModelKind::AutoPowerMinus);
    }

    #[test]
    fn unknown_models_fail_at_parse_time() {
        let err = parse_args(args(&["sweep", "--model", "xgboost"])).unwrap_err();
        assert!(err.contains("unknown model 'xgboost'"));
        assert!(err.contains("usage:"), "error must repeat the usage line");
        assert!(parse_args(args(&["--model"])).is_err());
    }

    #[test]
    fn new_experiment_verbs_are_registered() {
        for verb in ["xval", "compare"] {
            let parsed = parse_args(args(&[verb])).expect("valid arguments");
            assert_eq!(parsed.requested, vec![verb.to_owned()]);
        }
        assert!(ALL_EXPERIMENTS.contains(&"xval"));
        assert!(ALL_EXPERIMENTS.contains(&"compare"));
    }

    #[test]
    fn save_model_verb_parses_but_is_not_part_of_all() {
        let parsed = parse_args(args(&[
            SAVE_MODEL,
            "--model",
            "mcpat-calib",
            "--out",
            "m.apm",
        ]))
        .expect("valid arguments");
        assert_eq!(parsed.requested, vec![SAVE_MODEL.to_owned()]);
        assert_eq!(parsed.model, ModelKind::McpatCalib);
        assert_eq!(parsed.out.as_deref(), Some("m.apm"));
        // `all` (and the empty default) never includes the file-writing verb.
        let all = parse_args(args(&["all"])).expect("valid arguments");
        assert!(!all.requested.iter().any(|r| r == SAVE_MODEL));
        let default = parse_args(args(&[])).expect("valid arguments");
        assert!(!default.requested.iter().any(|r| r == SAVE_MODEL));
    }

    #[test]
    fn load_model_flag_parses_in_both_forms_and_only_for_loadable_experiments() {
        let parsed =
            parse_args(args(&["sweep", "--load-model", "m.apm"])).expect("valid arguments");
        assert_eq!(parsed.load_model.as_deref(), Some("m.apm"));
        let parsed = parse_args(args(&["--load-model=m.apm", "table4"])).expect("valid arguments");
        assert_eq!(parsed.load_model.as_deref(), Some("m.apm"));
        // Experiments that retrain by design reject a pre-trained model.
        let err = parse_args(args(&["xval", "--load-model", "m.apm"])).unwrap_err();
        assert!(err.contains("retrains by design"));
        let err = parse_args(args(&["compare", "--load-model", "m.apm"])).unwrap_err();
        assert!(err.contains("retrains by design"));
        assert!(parse_args(args(&["--load-model"])).is_err());
    }

    #[test]
    fn no_sim_cache_flag_applies_to_sweeping_experiments_only() {
        // Default: the cache is on.
        let parsed = parse_args(args(&["sweep"])).expect("valid arguments");
        assert!(parsed.sim_cache);
        // Accepted on the sweeping verbs, alone or together.
        for list in [
            &["sweep", "--no-sim-cache"][..],
            &["--no-sim-cache", "compare"][..],
        ] {
            let parsed = parse_args(args(list)).expect("valid arguments");
            assert!(!parsed.sim_cache);
        }
        let parsed =
            parse_args(args(&["--no-sim-cache", "sweep", "compare"])).expect("valid arguments");
        assert!(!parsed.sim_cache);
        // Rejected at parse time on experiments that never cache simulations
        // (including the implicit `all` expansion).
        let err = parse_args(args(&["fig4", "--no-sim-cache"])).unwrap_err();
        assert!(err.contains("never caches simulations"));
        assert!(parse_args(args(&["--no-sim-cache"])).is_err());
        assert!(parse_args(args(&["all", "--no-sim-cache"])).is_err());
        // `--no-sim-cache=x` is not a form the flag takes.
        let err = parse_args(args(&["sweep", "--no-sim-cache=1"])).unwrap_err();
        assert!(err.contains("unknown flag"));
    }

    #[test]
    fn streaming_flags_parse_in_both_forms() {
        let parsed = parse_args(args(&[
            "sweep",
            "--stream",
            "--chunk",
            "32",
            "--checkpoint",
            "/tmp/s.ckpt",
            "--max-chunks",
            "2",
        ]))
        .expect("valid arguments");
        assert!(parsed.stream);
        assert!(!parsed.full);
        assert_eq!(parsed.chunk, 32);
        assert_eq!(parsed.checkpoint.as_deref(), Some("/tmp/s.ckpt"));
        assert_eq!(parsed.max_chunks, 2);
        assert!(parsed.wants_streaming_sweep());
        assert_eq!(parsed.stream_scope(), StreamScope::Sampled(parsed.count));

        let parsed = parse_args(args(&[
            "sweep",
            "--chunk=16",
            "--checkpoint=/tmp/s.ckpt",
            "--resume",
        ]))
        .expect("valid arguments");
        assert_eq!(parsed.chunk, 16);
        assert!(parsed.resume);
        assert!(parsed.wants_streaming_sweep());
        let options = parsed.stream_options();
        assert!(options.resume);
        assert_eq!(options.checkpoint.as_deref(), Some("/tmp/s.ckpt".as_ref()));

        // A plain sweep still materializes.
        let plain = parse_args(args(&["sweep"])).expect("valid arguments");
        assert!(!plain.wants_streaming_sweep());

        // Bad values fail with the right flag named.
        assert!(parse_args(args(&["sweep", "--chunk"])).is_err());
        let e = parse_args(args(&["sweep", "--chunk", "0"])).unwrap_err();
        assert!(e.contains("--chunk"));
        let e = parse_args(args(&["sweep", "--checkpoint=c", "--max-chunks=0"])).unwrap_err();
        assert!(e.contains("--max-chunks"));
    }

    #[test]
    fn full_flag_selects_the_whole_space_and_conflicts_with_count() {
        let parsed = parse_args(args(&["sweep", "--full"])).expect("valid arguments");
        assert!(parsed.full);
        assert_eq!(parsed.stream_scope(), StreamScope::Full);
        assert!(parsed.wants_streaming_sweep());
        let parsed = parse_args(args(&["pareto", "--full"])).expect("valid arguments");
        assert_eq!(parsed.stream_scope(), StreamScope::Full);
        let err = parse_args(args(&["sweep", "--full", "--count", "64"])).unwrap_err();
        assert!(err.contains("--count does not apply"));
        // Non-streaming verbs (and the implicit `all` expansion) reject it.
        let err = parse_args(args(&["fig4", "--full"])).unwrap_err();
        assert!(err.contains("does not stream"));
        assert!(parse_args(args(&["--full"])).is_err());
        let err = parse_args(args(&["xval", "--stream"])).unwrap_err();
        assert!(err.contains("does not stream"));
    }

    #[test]
    fn checkpoint_flags_are_validated() {
        // --resume and --max-chunks need --checkpoint.
        let err = parse_args(args(&["sweep", "--resume"])).unwrap_err();
        assert!(err.contains("--resume requires --checkpoint"));
        let err = parse_args(args(&["sweep", "--max-chunks", "2"])).unwrap_err();
        assert!(err.contains("requires --checkpoint"));
        // Checkpointing is a sweep-only capability.
        let err = parse_args(args(&["pareto", "--checkpoint", "c.ckpt"])).unwrap_err();
        assert!(err.contains("keeps no checkpoint"));
        assert!(parse_args(args(&["--checkpoint"])).is_err());
        // --chunk rides along on any sweep-engine verb, but nothing else.
        assert!(parse_args(args(&["compare", "--chunk", "8"])).is_ok());
        let err = parse_args(args(&["fig4", "--chunk", "8"])).unwrap_err();
        assert!(err.contains("sweep engine"));
    }

    #[test]
    fn pareto_verb_is_registered_and_loadable() {
        let parsed = parse_args(args(&["pareto"])).expect("valid arguments");
        assert_eq!(parsed.requested, vec!["pareto".to_owned()]);
        assert!(ALL_EXPERIMENTS.contains(&"pareto"));
        assert!(parse_args(args(&["pareto", "--load-model", "m.apm"])).is_ok());
        assert!(parse_args(args(&["pareto", "--no-sim-cache"])).is_ok());
    }

    #[test]
    fn out_flag_requires_the_save_model_verb() {
        let err = parse_args(args(&["sweep", "--out", "m.apm"])).unwrap_err();
        assert!(err.contains("--out"));
        assert!(parse_args(args(&["--out"])).is_err());
        let parsed = parse_args(args(&[SAVE_MODEL, "--out=x.apm"])).expect("valid arguments");
        assert_eq!(parsed.out.as_deref(), Some("x.apm"));
    }

    #[test]
    fn surrogate_flags_parse_in_both_forms_with_defaults() {
        let parsed = parse_args(args(&["sweep"])).expect("valid arguments");
        assert!(!parsed.surrogate);
        assert_eq!(parsed.effective_audit_rate(), DEFAULT_AUDIT_RATE);
        assert_eq!(
            parsed.surrogate_options().train_count,
            DEFAULT_SURROGATE_TRAIN
        );

        let parsed = parse_args(args(&[
            "sweep",
            "--surrogate",
            "--surrogate-train",
            "48",
            "--audit-rate",
            "0.5",
            "--save-surrogate",
            "/tmp/s.aps",
        ]))
        .expect("valid arguments");
        assert!(parsed.surrogate);
        assert_eq!(parsed.surrogate_options().train_count, 48);
        assert_eq!(parsed.effective_audit_rate(), 0.5);
        assert_eq!(
            parsed.surrogate_options().save.as_deref(),
            Some("/tmp/s.aps".as_ref())
        );

        let parsed = parse_args(args(&[
            "pareto",
            "--surrogate",
            "--audit-rate=1",
            "--load-surrogate=/tmp/s.aps",
        ]))
        .expect("valid arguments");
        assert_eq!(parsed.effective_audit_rate(), 1.0);
        assert_eq!(
            parsed.surrogate_options().load.as_deref(),
            Some("/tmp/s.aps".as_ref())
        );
    }

    #[test]
    fn surrogate_flags_are_validated_at_parse_time() {
        // The companions require --surrogate itself.
        for list in [
            &["sweep", "--surrogate-train", "48"][..],
            &["sweep", "--audit-rate", "0.5"][..],
            &["sweep", "--save-surrogate", "s.aps"][..],
            &["pareto", "--load-surrogate", "s.aps"][..],
        ] {
            let err = parse_args(args(list)).unwrap_err();
            assert!(err.contains("requires --surrogate"), "got: {err}");
        }
        // Save and load together are contradictory, as is sizing a training
        // run that --load-surrogate skips.
        let err = parse_args(args(&[
            "sweep",
            "--surrogate",
            "--save-surrogate=a",
            "--load-surrogate=b",
        ]))
        .unwrap_err();
        assert!(err.contains("pick one"), "got: {err}");
        let err = parse_args(args(&[
            "sweep",
            "--surrogate",
            "--surrogate-train=8",
            "--load-surrogate=b",
        ]))
        .unwrap_err();
        assert!(err.contains("conflicts with"), "got: {err}");
        // Audit rate domain: (0, 1], finite.
        for bad in ["0", "0.0", "1.5", "-0.25", "inf", "nan", "lots"] {
            let err = parse_args(args(&["sweep", "--surrogate", "--audit-rate", bad])).unwrap_err();
            assert!(err.contains("(0, 1]"), "'{bad}' got: {err}");
        }
        // Training-set size must be positive.
        let err =
            parse_args(args(&["sweep", "--surrogate", "--surrogate-train", "0"])).unwrap_err();
        assert!(err.contains("--surrogate-train"), "got: {err}");
        // The surrogate applies to the design-space scoring verbs only
        // (including the implicit `all` expansion).
        let err = parse_args(args(&["fig4", "--surrogate"])).unwrap_err();
        assert!(err.contains("simulates exactly"), "got: {err}");
        assert!(parse_args(args(&["--surrogate"])).is_err());
        assert!(parse_args(args(&["sweep", "--surrogate"])).is_ok());
        assert!(parse_args(args(&["pareto", "--surrogate"])).is_ok());
    }

    #[test]
    fn pareto_constraint_flags_parse_and_are_validated() {
        let parsed = parse_args(args(&["pareto", "--max-power", "12.5", "--min-ipc=0.8"]))
            .expect("valid arguments");
        assert_eq!(parsed.max_power, Some(12.5));
        assert_eq!(parsed.min_ipc, Some(0.8));
        let constraints = parsed.constraints();
        assert!(constraints.is_constrained());
        assert!(constraints.validate().is_ok());

        // Pareto-only.
        let err = parse_args(args(&["sweep", "--max-power", "10"])).unwrap_err();
        assert!(err.contains("computes no frontier"), "got: {err}");
        assert!(parse_args(args(&["--min-ipc", "1"])).is_err());
        // Non-finite or out-of-domain bounds fail at parse time.
        for bad in [
            &["pareto", "--max-power", "0"][..],
            &["pareto", "--max-power", "-3"][..],
            &["pareto", "--max-power", "inf"][..],
            &["pareto", "--max-power", "watts"][..],
            &["pareto", "--min-ipc", "-0.1"][..],
            &["pareto", "--min-ipc", "nan"][..],
        ] {
            assert!(parse_args(args(bad)).is_err(), "accepted {bad:?}");
        }
        // Zero is a legal IPC floor (inclusive bound).
        assert!(parse_args(args(&["pareto", "--min-ipc", "0"])).is_ok());
    }

    #[test]
    fn explicit_model_flag_is_tracked_for_load_mismatch_detection() {
        let parsed = parse_args(args(&["sweep"])).expect("valid arguments");
        assert!(!parsed.model_explicit);
        let parsed = parse_args(args(&["sweep", "--model", "autopower"])).expect("valid arguments");
        assert!(parsed.model_explicit);
    }

    #[test]
    fn usage_lists_exactly_the_flag_table() {
        let text = usage();
        for flag in FLAGS {
            let entry = match flag.kind.placeholder() {
                Some(value) => format!("[{} {value}]", flag.name),
                None => format!("[{}]", flag.name),
            };
            assert!(text.contains(&entry), "usage lacks {entry}");
        }
        // Every `--flag` the prose mentions is a real row.
        for (at, _) in text.match_indices("--") {
            let token: String = text[at..]
                .chars()
                .take_while(|c| *c == '-' || c.is_ascii_lowercase())
                .collect();
            assert!(
                FLAGS.iter().any(|flag| flag.name == token),
                "usage mentions {token}, which is not a flag"
            );
        }
    }
}
