//! Trained-model persistence: a registry-tagged, bit-exact text format.
//!
//! A design-space sweep service should not retrain its models in every
//! process: training reads the (expensive) corpus, while inference only needs
//! the fitted parameter tables.  All four registry models bottom out in plain
//! `f64` tables — ridge coefficients, boosted-tree splits and leaf weights,
//! scaling-rule coefficients — so they serialize naturally over the
//! [`serde::codec`] substrate, with every `f64` stored as its exact IEEE-754
//! bits.  A model saved with [`save_model`] and restored with [`load_model`]
//! reproduces the original model's predictions **bit for bit** (pinned by the
//! `model_serialization` integration tests).
//!
//! # Format
//!
//! ```text
//! autopower-model {
//!   version 2
//!   kind mcpat-calib          ; the ModelKind registry tag
//!   mcpat-calib { ... }       ; the body written by PowerModel::serialize
//! }
//! ```
//!
//! The registry tag makes the file self-describing: [`load_model`] restores
//! the concrete type behind a `Box<dyn PowerModel>` without the caller naming
//! it, exactly like [`ModelKind::train`] does for training.
//!
//! Version 2 stores every boosted forest as its distinct tree shapes plus
//! one line of leaf weights per tree (see the `GradientBoosting` codec in
//! `autopower_ml`):
//!
//! ```text
//! gbdt {
//!   gbdt-params { ... }
//!   base_score 3FE0000000000000 ; 0.5
//!   n_features 33
//!   shapes {
//!     len 7
//!     s 17:3FA0000000000000,L,L   ; preorder: feature:threshold-bits, L = leaf
//!     ...
//!   }
//!   trees {
//!     len 120
//!     t 0/3F8A36E2EB1C432D,BF8A36E2EB1C432D   ; shape index / leaf bits
//!     ...
//!   }
//! }
//! ```
//!
//! The fast-trained AutoPower model is ~1.2 MB in this form (16.8 MB in
//! version 1, which wrote every tree node as its own scope).  A version 1
//! file is refused with [`AutoPowerError::ModelFormat`] naming the version:
//! every model file is rebuilt by `save-model` in seconds, and a second
//! reader would be a second format to keep correct.

use crate::error::AutoPowerError;
use crate::power_model::{ModelKind, PowerModel};
use autopower_config::{
    sram_positions, Component, ConfigId, CpuConfig, HardwareParams, HwParam, SramPositionId,
    SEED_CONFIG_COUNT,
};
use autopower_techlib::{SramCompiler, SramMacro, TechLibrary};
use serde::codec::{CodecError, Reader, Writer};
use std::path::Path;

/// Version tag of the serialized model format; bumped on layout changes so a
/// stale file fails loudly instead of deserializing garbage.
pub const MODEL_FORMAT_VERSION: u64 = 2;

/// Serializes a trained model (any registry kind) to the registry-tagged text
/// format.
pub fn encode_model(model: &dyn PowerModel) -> String {
    let mut w = Writer::new();
    write_model(model, &mut w);
    w.finish()
}

/// The one model encoder behind [`encode_model`] and [`save_model`].
fn write_model(model: &dyn PowerModel, w: &mut Writer) {
    w.begin("autopower-model");
    w.u64("version", MODEL_FORMAT_VERSION);
    w.str("kind", model.kind().registry_name());
    model.serialize(w);
    w.end();
}

/// Restores a trained model from [`encode_model`] text.
///
/// # Errors
///
/// Returns [`AutoPowerError::ModelFormat`] on a malformed stream, a version
/// mismatch, or an unknown registry tag.
pub fn decode_model(text: &str) -> Result<Box<dyn PowerModel>, AutoPowerError> {
    let mut r = Reader::new(text);
    let model = (|| -> Result<Box<dyn PowerModel>, AutoPowerError> {
        r.begin("autopower-model").map_err(format_err)?;
        let version = r.u64("version").map_err(format_err)?;
        if version != MODEL_FORMAT_VERSION {
            return Err(AutoPowerError::ModelFormat(format!(
                "unsupported format version {version} (this build reads version \
                 {MODEL_FORMAT_VERSION})"
            )));
        }
        let kind: ModelKind = r.str("kind").map_err(format_err)?.parse()?;
        let model = kind.decode_trained(&mut r)?;
        r.end().map_err(format_err)?;
        r.expect_eof().map_err(format_err)?;
        Ok(model)
    })()?;
    Ok(model)
}

/// Saves a trained model to `path` (see [`encode_model`] for the format).
///
/// The text is streamed into the file as it is encoded, so the save never
/// holds the whole (multi-megabyte) text in memory; the bytes are exactly
/// [`encode_model`]'s.
///
/// # Errors
///
/// Returns [`AutoPowerError::ModelIo`] if the file cannot be written.
pub fn save_model(model: &dyn PowerModel, path: impl AsRef<Path>) -> Result<(), AutoPowerError> {
    let path = path.as_ref();
    // Temp file + rename: a crash mid-save can never leave a torn model file
    // where a serving process (hot reload, `--watch-models-ms`) would read it.
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    std::fs::File::create(tmp)
        .and_then(|mut file| {
            let mut w = Writer::streaming(&mut file);
            write_model(model, &mut w);
            w.finish_streaming()
        })
        .map_err(|e| AutoPowerError::ModelIo(format!("writing {}: {e}", tmp.display())))?;
    std::fs::rename(tmp, path)
        .map_err(|e| AutoPowerError::ModelIo(format!("renaming into {}: {e}", path.display())))
}

/// Loads a trained model saved by [`save_model`].
///
/// # Errors
///
/// Returns [`AutoPowerError::ModelIo`] if the file cannot be read and
/// [`AutoPowerError::ModelFormat`] if it does not parse.  Both name the
/// offending path: a server cold-starting from several model files (or hot
/// reloading them) must be able to say *which* file is broken.
pub fn load_model(path: impl AsRef<Path>) -> Result<Box<dyn PowerModel>, AutoPowerError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| AutoPowerError::ModelIo(format!("reading {}: {e}", path.display())))?;
    decode_model(&text).map_err(|e| match e {
        AutoPowerError::ModelFormat(message) => {
            AutoPowerError::ModelFormat(format!("{}: {message}", path.display()))
        }
        other => other,
    })
}

impl From<CodecError> for AutoPowerError {
    fn from(e: CodecError) -> Self {
        format_err(e)
    }
}

fn format_err(e: CodecError) -> AutoPowerError {
    AutoPowerError::ModelFormat(e.to_string())
}

// --- codec helpers for foreign types (config / techlib) -------------------
//
// `Codec` and these types both live outside this crate, so the orphan rule
// forbids trait impls; plain functions do the same job.

/// Writes a component by its stable registry name.
pub(crate) fn encode_component(w: &mut Writer, component: Component) {
    w.str("component", component.name());
}

/// Reads a component written by [`encode_component`].
pub(crate) fn decode_component(r: &mut Reader<'_>) -> Result<Component, CodecError> {
    let name = r.str("component")?;
    Component::ALL
        .into_iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| CodecError::new(r.line(), format!("unknown component '{name}'")))
}

/// Writes a hardware parameter by its stable Table II name.
pub(crate) fn encode_hw_param(w: &mut Writer, param: HwParam) {
    w.str("param", param.name());
}

/// Reads a hardware parameter written by [`encode_hw_param`].
pub(crate) fn decode_hw_param(r: &mut Reader<'_>) -> Result<HwParam, CodecError> {
    let name = r.str("param")?;
    HwParam::ALL
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| CodecError::new(r.line(), format!("unknown hardware parameter '{name}'")))
}

/// Writes a full configuration: identifier kind + index and all 14 parameter
/// values (used by the streaming-sweep checkpoint format).
pub(crate) fn encode_config(w: &mut Writer, config: &CpuConfig) {
    w.begin("config");
    match config.id.generated_index() {
        Some(n) => {
            w.str("id_kind", "generated");
            w.u64("id", u64::from(n));
        }
        None => {
            w.str("id_kind", "seed");
            w.u64("id", u64::from(config.id.index()));
        }
    }
    w.begin_list("params", config.params.values().len());
    for &v in config.params.values() {
        w.u64("v", u64::from(v));
    }
    w.end();
    w.end();
}

/// Reads a configuration written by [`encode_config`].
pub(crate) fn decode_config(r: &mut Reader<'_>) -> Result<CpuConfig, CodecError> {
    r.begin("config")?;
    let kind = r.str("id_kind")?.to_owned();
    let id_line = r.line();
    let index = r.u64("id")?;
    let id = match kind.as_str() {
        "generated" => {
            let n = u32::try_from(index)
                .ok()
                .filter(|&n| n > 0 && n < u32::MAX - SEED_CONFIG_COUNT)
                .ok_or_else(|| {
                    CodecError::new(
                        id_line,
                        format!("generated config index {index} out of range"),
                    )
                })?;
            ConfigId::generated(n)
        }
        "seed" => {
            let n = u8::try_from(index)
                .ok()
                .filter(|&n| (1..=SEED_CONFIG_COUNT as u8).contains(&n))
                .ok_or_else(|| {
                    CodecError::new(id_line, format!("seed config index {index} out of range"))
                })?;
            ConfigId::new(n)
        }
        other => {
            return Err(CodecError::new(
                id_line,
                format!("unknown config id kind '{other}'"),
            ))
        }
    };
    let count = r.begin_list("params")?;
    let mut values = [0u32; 14];
    if count != values.len() {
        return Err(CodecError::new(
            r.line(),
            format!("expected {} parameter values, found {count}", values.len()),
        ));
    }
    for slot in &mut values {
        let line = r.line();
        let v = r.u64("v")?;
        *slot = u32::try_from(v)
            .map_err(|_| CodecError::new(line, format!("parameter value {v} exceeds u32")))?;
    }
    r.end()?;
    r.end()?;
    Ok(CpuConfig::new(id, HardwareParams::new(values)))
}

/// Writes an SRAM position as its owning component plus short name.
pub(crate) fn encode_position(w: &mut Writer, position: SramPositionId) {
    w.begin("position");
    encode_component(w, position.component);
    w.str("name", position.name);
    w.end();
}

/// Reads a position written by [`encode_position`] and re-resolves it against
/// the catalogue (positions are architecture-level facts, not file payload).
pub(crate) fn decode_position(r: &mut Reader<'_>) -> Result<SramPositionId, CodecError> {
    r.begin("position")?;
    let component = decode_component(r)?;
    let name = r.str("name")?;
    let position_line = r.line();
    r.end()?;
    sram_positions()
        .iter()
        .map(|p| p.id)
        .find(|id| id.component == component && id.name == name)
        .ok_or_else(|| {
            CodecError::new(
                position_line,
                format!("unknown SRAM position '{component}.{name}'"),
            )
        })
}

/// Writes the full technology library (cells + macro catalogue), so a loaded
/// model predicts with exactly the library it was trained with even if the
/// default library ever changes.
pub(crate) fn encode_library(w: &mut Writer, library: &TechLibrary) {
    w.begin("library");
    w.str("node", &library.node);
    w.f64("clock_ghz", library.clock_ghz);
    let cells = library.cells();
    w.begin("cells");
    w.f64("register_clock_pin_mw", cells.register_clock_pin_mw);
    w.f64("gating_cell_latch_mw", cells.gating_cell_latch_mw);
    w.f64("register_toggle_pj", cells.register_toggle_pj);
    w.f64("register_leakage_mw", cells.register_leakage_mw);
    w.f64("comb_dynamic_mw_per_gate", cells.comb_dynamic_mw_per_gate);
    w.f64("comb_leakage_mw_per_gate", cells.comb_leakage_mw_per_gate);
    w.f64("gating_cell_fanout", cells.gating_cell_fanout);
    w.end();
    let macros = library.sram().supported_macros();
    w.begin_list("macros", macros.len());
    for m in macros {
        w.begin("macro");
        w.u64("width", m.width as u64);
        w.u64("depth", m.depth as u64);
        w.f64("read_energy_pj", m.read_energy_pj);
        w.f64("write_energy_pj", m.write_energy_pj);
        w.f64("leakage_mw", m.leakage_mw);
        w.f64("area", m.area);
        w.end();
    }
    w.end();
    w.end();
}

/// Reads a library written by [`encode_library`].
pub(crate) fn decode_library(r: &mut Reader<'_>) -> Result<TechLibrary, CodecError> {
    r.begin("library")?;
    let node = r.str("node")?.to_owned();
    let clock_ghz = r.f64("clock_ghz")?;
    r.begin("cells")?;
    let cells = autopower_techlib::CellParams {
        register_clock_pin_mw: r.f64("register_clock_pin_mw")?,
        gating_cell_latch_mw: r.f64("gating_cell_latch_mw")?,
        register_toggle_pj: r.f64("register_toggle_pj")?,
        register_leakage_mw: r.f64("register_leakage_mw")?,
        comb_dynamic_mw_per_gate: r.f64("comb_dynamic_mw_per_gate")?,
        comb_leakage_mw_per_gate: r.f64("comb_leakage_mw_per_gate")?,
        gating_cell_fanout: r.f64("gating_cell_fanout")?,
    };
    r.end()?;
    let len = r.begin_list("macros")?;
    let mut macros = Vec::with_capacity(len);
    for _ in 0..len {
        r.begin("macro")?;
        macros.push(SramMacro {
            width: r.u64("width")? as u32,
            depth: r.u64("depth")? as u32,
            read_energy_pj: r.f64("read_energy_pj")?,
            write_energy_pj: r.f64("write_energy_pj")?,
            leakage_mw: r.f64("leakage_mw")?,
            area: r.f64("area")?,
        });
        r.end()?;
    }
    r.end()?;
    r.end()?;
    if macros.is_empty() || clock_ghz <= 0.0 || clock_ghz.is_nan() {
        return Err(CodecError::new(
            r.line(),
            "library must carry a positive clock and at least one macro",
        ));
    }
    Ok(TechLibrary::with_parts(
        node,
        clock_ghz,
        cells,
        SramCompiler::from_macros(macros),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::codec::Codec as _;

    #[test]
    fn library_round_trips_bit_for_bit() {
        let lib = TechLibrary::tsmc40_like();
        let mut w = Writer::new();
        encode_library(&mut w, &lib);
        let text = w.finish();
        let mut r = Reader::new(&text);
        let back = decode_library(&mut r).unwrap();
        assert_eq!(back, lib);
    }

    #[test]
    fn components_params_and_positions_round_trip() {
        for component in Component::ALL {
            let mut w = Writer::new();
            encode_component(&mut w, component);
            let text = w.finish();
            assert_eq!(
                decode_component(&mut Reader::new(&text)).unwrap(),
                component
            );
        }
        for param in HwParam::ALL {
            let mut w = Writer::new();
            encode_hw_param(&mut w, param);
            let text = w.finish();
            assert_eq!(decode_hw_param(&mut Reader::new(&text)).unwrap(), param);
        }
        for position in sram_positions() {
            let mut w = Writer::new();
            encode_position(&mut w, position.id);
            let text = w.finish();
            assert_eq!(
                decode_position(&mut Reader::new(&text)).unwrap(),
                position.id
            );
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        let mut w = Writer::new();
        w.str("component", "FluxCapacitor");
        let text = w.finish();
        assert!(decode_component(&mut Reader::new(&text)).is_err());
    }

    #[test]
    fn version_and_kind_tags_are_enforced() {
        let err = decode_model("autopower-model {\n version 999\n}\n").unwrap_err();
        assert!(matches!(err, AutoPowerError::ModelFormat(_)));
        assert!(err.to_string().contains("version 999"));

        let err = decode_model(&format!(
            "autopower-model {{\n version {MODEL_FORMAT_VERSION}\n kind xgboost\n}}\n"
        ))
        .unwrap_err();
        assert!(matches!(err, AutoPowerError::UnknownModel(_)));

        let err = decode_model("not-a-model {\n}\n").unwrap_err();
        assert!(matches!(err, AutoPowerError::ModelFormat(_)));
    }

    #[test]
    fn save_and_load_round_trip_through_the_filesystem() {
        use crate::dataset::{Corpus, CorpusSpec};
        use autopower_config::{boom_configs, ConfigId, Workload};

        let cfgs = boom_configs();
        let corpus = Corpus::generate(
            &[cfgs[0], cfgs[14]],
            &[Workload::Dhrystone, Workload::Vvadd],
            &CorpusSpec::fast(),
        );
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let model = ModelKind::McpatCalib.train(&corpus, &train).unwrap();

        let dir = std::env::temp_dir().join("autopower-serialize-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mcpat-calib.apm");
        save_model(model.as_ref(), &path).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.kind(), ModelKind::McpatCalib);
        for run in corpus.runs() {
            assert_eq!(
                loaded.predict_total(run).to_bits(),
                model.predict_total(run).to_bits()
            );
        }
        std::fs::remove_file(&path).ok();

        let err = load_model(dir.join("does-not-exist.apm")).unwrap_err();
        assert!(matches!(err, AutoPowerError::ModelIo(_)));
    }

    #[test]
    fn load_errors_name_the_offending_file() {
        let dir = std::env::temp_dir().join("autopower-serialize-path-test");
        std::fs::create_dir_all(&dir).unwrap();

        // I/O failure: the missing file's path is in the message.
        let missing = dir.join("missing.apm");
        let err = load_model(&missing).unwrap_err();
        assert!(matches!(err, AutoPowerError::ModelIo(_)));
        assert!(
            err.to_string().contains("missing.apm"),
            "I/O error must name the file: {err}"
        );

        // Format failure: a readable but malformed file is named too — a
        // server loading several model files must say which one is broken.
        let garbage = dir.join("garbage.apm");
        std::fs::write(&garbage, "not a model file\n").unwrap();
        let err = load_model(&garbage).unwrap_err();
        assert!(matches!(err, AutoPowerError::ModelFormat(_)));
        assert!(
            err.to_string().contains("garbage.apm"),
            "format error must name the file: {err}"
        );
        std::fs::remove_file(&garbage).ok();
    }

    #[test]
    fn a_version_1_file_is_refused_naming_the_file_and_the_version() {
        // Version 1 wrote every tree node as its own scope; it is not read.
        let dir = std::env::temp_dir().join("autopower-serialize-v1-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.apm");
        let v1 = "autopower-model {\n  version 1\n  kind autopower\n  autopower {\n";
        std::fs::write(&path, v1).unwrap();
        let err = load_model(&path).unwrap_err();
        assert!(matches!(err, AutoPowerError::ModelFormat(_)), "{err}");
        let message = err.to_string();
        assert!(message.contains("old.apm"), "{message}");
        assert!(
            message.contains("unsupported format version 1 (this build reads version 2)"),
            "{message}"
        );
        std::fs::remove_file(&path).ok();
    }

    fn two_config_corpus() -> crate::dataset::Corpus {
        use crate::dataset::{Corpus, CorpusSpec};
        use autopower_config::{boom_configs, Workload};

        let cfgs = boom_configs();
        Corpus::generate(
            &[cfgs[0], cfgs[14]],
            &[Workload::Dhrystone, Workload::Vvadd],
            &CorpusSpec::fast(),
        )
    }

    #[test]
    fn saved_model_files_are_exactly_the_encoded_text() {
        // save_model streams the text while encoding it; the file must be
        // encode_model's bytes for every registry model (the AutoPower file
        // is many spill buffers long).
        let corpus = two_config_corpus();
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let dir = std::env::temp_dir().join("autopower-serialize-one-encoder-test");
        std::fs::create_dir_all(&dir).unwrap();
        for kind in ModelKind::ALL {
            let model = kind.train(&corpus, &train).unwrap();
            let path = dir.join(format!("{kind}.apm"));
            save_model(model.as_ref(), &path).unwrap();
            let saved = std::fs::read_to_string(&path).unwrap();
            assert!(
                saved == encode_model(model.as_ref()),
                "{kind}: file differs"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn saved_checkpoint_files_are_exactly_the_encoded_text() {
        use crate::stream::{
            encode_checkpoint, save_checkpoint, ChunkCursor, StreamSpec, SweepAggregator,
            SweepCheckpoint,
        };
        use crate::surrogate::AuditAccumulator;
        use crate::sweep::ConfigSummary;
        use autopower_config::DesignSpace;
        use autopower_perfsim::EventParams;
        use autopower_powersim::PowerGroups;

        let mut aggregator = SweepAggregator::new(3, &StreamSpec::default());
        for (i, config) in DesignSpace::boom().sample(400, 5).into_iter().enumerate() {
            let x = i as f64;
            let groups = PowerGroups {
                clock: 3.0 + (x * 0.7).sin(),
                sram: 2.0 + (x * 0.3).cos(),
                register: 1.0 + x / 400.0,
                combinational: 4.0 - x / 900.0,
            };
            let mean_ipc = 0.8 + (x * 0.11).sin().abs();
            aggregator.push_summary(ConfigSummary {
                config,
                mean_total: groups.total(),
                mean_groups: Some(groups),
                mean_ipc,
                energy_per_instruction: groups.total() / mean_ipc,
            });
        }
        let events = EventParams::names().len();
        let mut audit = AuditAccumulator::new(events);
        let exact: Vec<f64> = (0..events).map(|e| 1.0 + e as f64).collect();
        let predicted: Vec<f64> = exact.iter().map(|v| v * 1.01).collect();
        audit.record(&exact, &predicted, 50.0, 51.0);

        let dir = std::env::temp_dir().join("autopower-serialize-one-checkpoint-encoder-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, audit) in [("exact", None), ("surrogate", Some(audit))] {
            let checkpoint = SweepCheckpoint {
                fingerprint: 0xC0FFEE,
                cursor: ChunkCursor { offset: 400 },
                aggregator: aggregator.clone(),
                audit,
            };
            let path = dir.join(format!("{name}.ckpt"));
            save_checkpoint(&checkpoint, &path).unwrap();
            let saved = std::fs::read_to_string(&path).unwrap();
            assert!(
                saved == encode_checkpoint(&checkpoint),
                "{name}: file differs"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn a_failed_save_names_the_temp_file_and_keeps_the_previous_model() {
        let corpus = two_config_corpus();
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let model = ModelKind::McpatCalib.train(&corpus, &train).unwrap();
        let dir = std::env::temp_dir().join("autopower-serialize-failed-save-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.apm");
        save_model(model.as_ref(), &path).unwrap();
        let before = std::fs::read(&path).unwrap();

        // The temp sibling cannot be created: it is a directory.
        let tmp = dir.join("model.apm.tmp");
        std::fs::create_dir_all(&tmp).unwrap();
        let err = save_model(model.as_ref(), &path).unwrap_err();
        assert!(matches!(err, AutoPowerError::ModelIo(_)), "{err}");
        assert!(
            err.to_string().contains(&tmp.display().to_string()),
            "the error must name the temp file: {err}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let loaded = load_model(&path).unwrap();
        for run in corpus.runs() {
            assert_eq!(
                loaded.predict_total(run).to_bits(),
                model.predict_total(run).to_bits()
            );
        }
        std::fs::remove_dir(&tmp).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn codec_trait_is_reachable_for_concrete_models() {
        // Concrete model types implement `Codec` directly (decode needs the
        // concrete type); the dyn path goes through PowerModel::serialize +
        // ModelKind::decode_trained.  Pin that both name the same format.
        use crate::baselines::McpatCalib;
        use crate::dataset::{Corpus, CorpusSpec};
        use autopower_config::{boom_configs, ConfigId, Workload};

        let cfgs = boom_configs();
        let corpus = Corpus::generate(
            &[cfgs[0], cfgs[14]],
            &[Workload::Vvadd],
            &CorpusSpec::fast(),
        );
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let concrete = McpatCalib::train(&corpus, &train).unwrap();
        let mut w = Writer::new();
        concrete.encode(&mut w);
        let direct = w.finish();

        let mut w = Writer::new();
        PowerModel::serialize(&concrete, &mut w);
        assert_eq!(w.finish(), direct);
    }
}
