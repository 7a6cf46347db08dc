//! Save/load acceptance: every registry model round-trips through the
//! registry-tagged text format with **bit-identical** predictions, the
//! encoded text itself is a stable golden form (re-encoding a loaded model
//! reproduces it byte for byte), and a loaded model's sweep output equals the
//! freshly-trained model's — so a sweep service can skip retraining entirely.

use autopower_repro::config::{boom_configs, ConfigId, DesignSpace, Workload};
use autopower_repro::model::{
    decode_model, encode_model, AutoPowerError, Corpus, CorpusSpec, ModelKind, SweepEngine,
    SweepSpec, MODEL_FORMAT_VERSION,
};
use std::sync::OnceLock;

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let cfgs = boom_configs();
        Corpus::generate(
            &[cfgs[0], cfgs[7], cfgs[14]],
            &[Workload::Dhrystone, Workload::Qsort, Workload::Vvadd],
            &CorpusSpec::fast(),
        )
    })
}

fn train_ids() -> [ConfigId; 2] {
    [ConfigId::new(1), ConfigId::new(15)]
}

#[test]
fn every_registry_model_round_trips_with_bit_identical_predictions() {
    let c = corpus();
    for kind in ModelKind::ALL {
        let trained = kind.train(c, &train_ids()).unwrap();
        let text = encode_model(trained.as_ref());
        let loaded = decode_model(&text).unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(loaded.kind(), kind);
        for run in c.runs() {
            // The full typed prediction — total AND resolved structure — is
            // equal, not just close.
            assert_eq!(
                loaded.predict_run(run),
                trained.predict_run(run),
                "{kind} prediction drifted through serialization"
            );
            assert_eq!(
                loaded.predict_total(run).to_bits(),
                trained.predict_total(run).to_bits(),
                "{kind} total drifted through serialization"
            );
            assert_eq!(
                loaded.predict_run_components(run),
                trained.predict_run_components(run),
                "{kind} component view drifted through serialization"
            );
        }
    }
}

#[test]
fn encoded_form_is_a_stable_golden_format() {
    // decode(encode(m)) re-encodes to the *same bytes*: the format is
    // canonical, so golden files and drift detection are byte comparisons.
    let c = corpus();
    for kind in ModelKind::ALL {
        let trained = kind.train(c, &train_ids()).unwrap();
        let text = encode_model(trained.as_ref());
        let loaded = decode_model(&text).unwrap();
        assert_eq!(
            encode_model(loaded.as_ref()),
            text,
            "{kind} re-encoding is not canonical"
        );
        // Header golden: first lines carry the version and the registry tag.
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("autopower-model {"));
        assert_eq!(
            lines.next().map(str::trim),
            Some(format!("version {MODEL_FORMAT_VERSION}").as_str())
        );
        assert_eq!(
            lines.next().map(str::trim),
            Some(format!("kind {}", kind.registry_name()).as_str())
        );
        assert_eq!(text.lines().last(), Some("}"));
    }
}

#[test]
fn loaded_model_sweeps_bit_identically_to_the_trained_model() {
    let c = corpus();
    let configs = DesignSpace::boom().sample(5, 17);
    let workloads = [Workload::Dhrystone, Workload::Vvadd];
    let spec = SweepSpec::fast().threads(2);
    for kind in [ModelKind::AutoPower, ModelKind::McpatCalib] {
        let trained = kind.train(c, &train_ids()).unwrap();
        let loaded = decode_model(&encode_model(trained.as_ref())).unwrap();
        let fresh = SweepEngine::new(trained.as_ref(), spec).run(&configs, &workloads);
        let restored = SweepEngine::new(loaded.as_ref(), spec).run(&configs, &workloads);
        assert_eq!(
            fresh, restored,
            "{kind} sweep drifted through serialization"
        );
    }
}

#[test]
fn tampered_files_fail_loudly() {
    let c = corpus();
    let trained = ModelKind::McpatCalib.train(c, &train_ids()).unwrap();
    let text = encode_model(trained.as_ref());

    // Wrong registry tag.
    let wrong_kind = text.replacen("kind mcpat-calib", "kind autopower", 1);
    assert!(
        decode_model(&wrong_kind).is_err(),
        "kind/body mismatch must fail"
    );

    // Wrong version.
    let wrong_version = text.replacen(
        &format!("version {MODEL_FORMAT_VERSION}"),
        "version 9999",
        1,
    );
    let err = decode_model(&wrong_version).unwrap_err();
    assert!(err.to_string().contains("9999"));

    // Truncation.
    let truncated = &text[..text.len() / 2];
    assert!(decode_model(truncated).is_err());

    // Trailing garbage after the closing brace.
    let trailing = format!("{text}\nextra 1\n");
    assert!(decode_model(&trailing).is_err());
}

/// Maps a field's value to its corrupted form.
type Tamper = fn(&str) -> String;

/// Rewrites the value of the first line whose field is `name` with
/// `tamper`, and returns the new text and that line's 1-based number.
fn corrupt_value(text: &str, name: &str, tamper: &dyn Fn(&str) -> String) -> (String, usize) {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let index = lines
        .iter()
        .position(|line| line.trim_start().starts_with(&format!("{name} ")))
        .unwrap_or_else(|| panic!("no '{name}' line"));
    let line = &mut lines[index];
    let start = line.find(&format!("{name} ")).unwrap() + name.len() + 1;
    let end = line[start..].find(' ').map_or(line.len(), |n| start + n);
    let value = tamper(&line[start..end]);
    line.replace_range(start..end, &value);
    (lines.join("\n") + "\n", index + 1)
}

/// The text of the fast-trained AutoPower model of [`corpus`].
fn autopower_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let trained = ModelKind::AutoPower.train(corpus(), &train_ids()).unwrap();
        encode_model(trained.as_ref())
    })
}

/// The offset just past the first `sep` in a shape or tree token: the first
/// threshold of `2:3FD5…,L,L` starts at `after(v, ':')`.
fn after(value: &str, sep: char) -> usize {
    value
        .find(sep)
        .unwrap_or_else(|| panic!("no '{sep}' in '{value}'"))
        + 1
}

#[test]
fn a_signed_scalar_in_a_saved_model_is_refused_with_its_line() {
    let text = autopower_text();
    // The writer never signs a value, so a signed one is corruption even
    // where the digits would still parse: `+FD5A9F94286EC77` keeps the
    // 16-character shape of an f64, and `+N` parses as a u64.  A shape line
    // (`s`) holds the split features and thresholds, a tree line (`t`) the
    // leaf weights.
    let cases: [(&str, Tamper, &str); 4] = [
        (
            "s",
            |v| {
                let at = after(v, ':');
                format!("{}+{}", &v[..at], &v[at + 1..])
            },
            "malformed bits",
        ),
        ("len", |v| format!("+{v}"), "malformed integer"),
        ("s", |v| format!("-{v}"), "malformed integer"),
        (
            "t",
            |v| {
                let at = after(v, '/');
                format!("{}g{}", &v[..at], &v[at + 1..])
            },
            "malformed bits",
        ),
    ];
    for (name, tamper, kind) in cases {
        let (tampered, line) = corrupt_value(text, name, &tamper);
        let err = decode_model(&tampered).unwrap_err().to_string();
        assert!(
            err.contains(&format!("line {line}: field '{name}': {kind}")),
            "{name}: {err}"
        );
    }
}

/// Asserts `text` is refused as a malformed model file whose error names
/// `line` and contains `what`.
fn assert_refused(text: &str, line: usize, what: &str) {
    match decode_model(text) {
        Err(err @ AutoPowerError::ModelFormat(_)) => {
            let message = err.to_string();
            assert!(
                message.contains(&format!("line {line}: ")) && message.contains(what),
                "expected line {line} and '{what}' in: {message}"
            );
        }
        other => panic!("expected a ModelFormat refusal ({what}), got {other:?}"),
    }
}

/// Rewrites the value of a shape (`s`) or tree (`t`) line.
type Craft = Box<dyn Fn(&str) -> String>;

#[test]
fn crafted_forest_lines_are_refused_with_their_line() {
    let text = autopower_text();
    let n_features: usize = text
        .lines()
        .find_map(|line| line.trim().strip_prefix("n_features "))
        .unwrap()
        .parse()
        .unwrap();
    let shapes: usize = {
        let mut lines = text.lines().skip_while(|line| line.trim() != "shapes {");
        lines.nth(1).unwrap().trim()["len ".len()..]
            .parse()
            .unwrap()
    };
    let deep_shape = |v: &str| {
        let split = &v[..after(v, ',')];
        format!("{}{}L", split.repeat(65), "L,".repeat(65))
    };
    let cases: [(&str, Craft, String); 8] = [
        (
            "len",
            Box::new(|_| (1u64 << 62).to_string()),
            "entries exceeds the".to_owned(),
        ),
        (
            "t",
            Box::new(move |v| format!("{shapes}{}", &v[after(v, '/') - 1..])),
            format!("shape index {shapes} out of range ({shapes} shapes)"),
        ),
        (
            "t",
            Box::new(|v| format!("{v},3FF0000000000000")),
            "leaf weights for a shape with".to_owned(),
        ),
        (
            "s",
            Box::new(move |v| format!("{n_features}{}", &v[after(v, ':') - 1..])),
            format!("split feature {n_features} out of range ({n_features} features)"),
        ),
        (
            "s",
            Box::new(deep_shape),
            "tree nests deeper than 64 splits".to_owned(),
        ),
        (
            "t",
            Box::new(|v| {
                let at = after(v, '/');
                format!("{}-{}", &v[..at], &v[at + 1..])
            }),
            "malformed bits '-".to_owned(),
        ),
        (
            "s",
            Box::new(|v| {
                let at = after(v, ':');
                format!("{}x{}", &v[..at], &v[at + 1..])
            }),
            "malformed bits 'x".to_owned(),
        ),
        (
            "s",
            Box::new(|v| format!("{v},L")),
            "entry 'L' after a complete tree".to_owned(),
        ),
    ];
    for (name, tamper, what) in &cases {
        let (tampered, line) = corrupt_value(text, name, tamper);
        assert_refused(&tampered, line, what);
    }
}

#[test]
fn every_torn_prefix_of_a_saved_model_is_refused() {
    // A file cut short (a copy interrupted, a disk filled) must never load
    // as a model.  Cuts both just after a newline and inside a line, spread
    // over the whole file, so they land in every kind of line, the shape
    // and tree lists included.  Only the last two bytes are spared: without
    // its final newline the closing `}` still completes the document.
    let text = autopower_text();
    let cuts = 32;
    let mut refused = 0;
    for i in 1..=cuts {
        let mid_line = (text.len() - 2) * i / (cuts + 1);
        let line_end = text[..mid_line].rfind('\n').map_or(0, |n| n + 1);
        for cut in [mid_line, line_end] {
            match decode_model(&text[..cut]) {
                Err(AutoPowerError::ModelFormat(_)) => refused += 1,
                other => panic!("a {cut}-byte prefix was not refused: {other:?}"),
            }
        }
    }
    assert_eq!(refused, 2 * cuts);
    assert!(decode_model(&text[..text.len() - 1]).is_ok());
}

#[test]
fn serialization_also_pins_the_trained_model_against_behavioural_drift() {
    // A PowerModel is deterministic: training twice and loading a saved copy
    // all agree.  This is the property that lets CI gate the format — any
    // change to training or to the codec shows up as a diff here.
    let c = corpus();
    let a = ModelKind::AutoPowerMinus.train(c, &train_ids()).unwrap();
    let b = ModelKind::AutoPowerMinus.train(c, &train_ids()).unwrap();
    assert_eq!(encode_model(a.as_ref()), encode_model(b.as_ref()));
}
