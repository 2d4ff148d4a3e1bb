//! Negative-path coverage for `urcl::core::persist`: every way a
//! checkpoint can be wrong must surface as a typed [`PersistError`], never
//! a panic and never a silently corrupted model. Every document is read
//! through [`CheckpointDir::load`], the one checkpoint reader, and every
//! layout check goes through [`copy_store_checked`].

use urcl::core::persist::{copy_store_checked, CheckpointDir, PersistError, CHECKPOINT_VERSION};
use urcl::tensor::{ParamStore, Tensor};

/// A fresh, empty checkpoint directory.
fn temp_slots(name: &str) -> CheckpointDir {
    let dir = std::env::temp_dir().join(format!("urcl-neg-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    CheckpointDir::new(dir).unwrap()
}

/// Publishes `text` as the directory's only checkpoint, loads it, cleans
/// up, and returns the error.
fn load_text(name: &str, text: &str) -> PersistError {
    let slots = temp_slots(name);
    std::fs::write(slots.latest_path(), text).unwrap();
    let err = slots.load().unwrap_err();
    std::fs::remove_dir_all(slots.dir()).ok();
    err
}

/// Saves `saved` params-only, then copies it into `model` through the
/// layout check.
fn load_into(name: &str, saved: &ParamStore, model: &mut ParamStore) -> Result<(), PersistError> {
    let slots = temp_slots(name);
    slots.save("", saved, None).unwrap();
    let ckpt = slots.load();
    std::fs::remove_dir_all(slots.dir()).ok();
    copy_store_checked(&ckpt?.store, model)
}

fn small_store() -> ParamStore {
    let mut store = ParamStore::new();
    store.add("enc.w", Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
    store.add("enc.b", Tensor::from_vec(vec![0.5], &[1]));
    store
}

#[test]
fn truncated_file_is_a_format_error() {
    let slots = temp_slots("trunc");
    slots.save("will be torn", &small_store(), None).unwrap();
    let text = std::fs::read_to_string(slots.latest_path()).unwrap();
    // Cut the document mid-token, as a crash mid-write would.
    std::fs::write(slots.latest_path(), &text[..text.len() * 2 / 3]).unwrap();
    let err = slots.load().unwrap_err();
    std::fs::remove_dir_all(slots.dir()).ok();
    assert!(matches!(err, PersistError::Format(_)), "{err}");
}

#[test]
fn nan_payload_serialized_as_null_is_rejected() {
    // Non-finite floats serialize as JSON null; the loader must reject
    // them rather than materialize a poisoned parameter.
    let err = load_text(
        "nan",
        r#"{"version": 2, "description": "", "store": {"params": [
            {"name": "w", "shape": [2], "data": [1.0, null]}
        ]}}"#,
    );
    assert!(matches!(err, PersistError::Format(_)), "{err}");
    assert!(err.to_string().contains("data[1]"), "{err}");
}

#[test]
fn infinity_smuggled_as_overflowing_literal_is_rejected() {
    // "1e999" parses to f64::INFINITY via str::parse — the explicit
    // finiteness check must catch it even though it is "a number".
    let err = load_text(
        "inf",
        r#"{"version": 2, "description": "", "store": {"params": [
            {"name": "w", "shape": [1], "data": [1e999]}
        ]}}"#,
    );
    assert!(matches!(err, PersistError::Format(_)), "{err}");
    assert!(err.to_string().contains("non-finite"), "{err}");
}

#[test]
fn data_length_not_matching_shape_is_rejected() {
    let err = load_text(
        "shapelen",
        r#"{"version": 2, "description": "", "store": {"params": [
            {"name": "w", "shape": [2, 2], "data": [1.0, 2.0, 3.0]}
        ]}}"#,
    );
    assert!(matches!(err, PersistError::Format(_)), "{err}");
}

#[test]
fn unknown_future_version_is_a_version_error() {
    let err = load_text(
        "v3",
        r#"{"version": 3, "description": "from the future", "store": {"params": []}}"#,
    );
    let PersistError::Version(v) = err else {
        panic!("expected Version error, got {err}");
    };
    assert_eq!(v, 3);
    assert_eq!(
        CHECKPOINT_VERSION, 2,
        "bump this test when the format moves"
    );
}

#[test]
fn missing_version_field_is_a_format_error() {
    let err = load_text("nover", r#"{"description": "", "store": {"params": []}}"#);
    assert!(matches!(err, PersistError::Format(_)), "{err}");
}

#[test]
fn v1_document_is_a_version_error() {
    // Only the seed release wrote params-only v1 documents; v2 is the only
    // format that loads, so a well-formed v1 document is refused by
    // version, not parsed.
    let err = load_text(
        "v1",
        r#"{"version": 1, "description": "pre-v2", "store": {"params": [
            {"name": "enc.w", "shape": [2, 2], "data": [1.0, 2.0, 3.0, 4.0]},
            {"name": "enc.b", "shape": [1], "data": [0.5]}
        ]}}"#,
    );
    assert!(matches!(err, PersistError::Version(1)), "{err}");
}

#[test]
fn shape_mismatch_against_live_model_is_typed_and_nondestructive() {
    let mut wrong = ParamStore::new();
    wrong.add("enc.w", Tensor::from_vec(vec![1.0, 2.0], &[2])); // [2] vs [2, 2]
    wrong.add("enc.b", Tensor::from_vec(vec![0.5], &[1]));

    let mut model = small_store();
    let before: Vec<Vec<f32>> = model
        .ids()
        .map(|i| model.value(i).data().to_vec())
        .collect();
    let err = load_into("mismatch-shape", &wrong, &mut model).unwrap_err();
    let PersistError::Mismatch(msg) = err else {
        panic!("expected Mismatch, got {err}");
    };
    assert!(msg.contains("enc.w"), "{msg}");
    // The model was not half-written.
    let after: Vec<Vec<f32>> = model
        .ids()
        .map(|i| model.value(i).data().to_vec())
        .collect();
    assert_eq!(before, after);
}

#[test]
fn parameter_count_and_name_mismatches_are_typed() {
    let mut one = ParamStore::new();
    one.add("enc.w", Tensor::from_vec(vec![0.0; 4], &[2, 2]));
    let mut model = small_store();
    assert!(matches!(
        load_into("mismatch-count", &one, &mut model).unwrap_err(),
        PersistError::Mismatch(_)
    ));

    // Same shapes, different name in slot 0.
    let mut other = ParamStore::new();
    other.add("dec.w", Tensor::from_vec(vec![0.0; 4], &[2, 2]));
    other.add("enc.b", Tensor::from_vec(vec![0.0], &[1]));
    let err = load_into("mismatch-name", &small_store(), &mut other).unwrap_err();
    let PersistError::Mismatch(msg) = err else {
        panic!("expected Mismatch, got {err}");
    };
    assert!(msg.contains("enc.w") && msg.contains("dec.w"), "{msg}");
}

#[test]
fn corrupt_pipeline_sections_are_format_errors() {
    let store_part = r#""store": {"params": []}"#;
    // Replay overflow: more samples than capacity.
    let overflow = format!(
        r#"{{"version": 2, "description": "", {store_part}, "pipeline": {{
            "optimizer": {{"t": 0, "m": [], "v": []}},
            "rng": ["1", "0", "0", "0"],
            "replay": {{"capacity": 1, "samples": [
                {{"x": {{"shape": [1], "data": [0.0]}}, "y": {{"shape": [1], "data": [0.0]}}}},
                {{"x": {{"shape": [1], "data": [0.0]}}, "y": {{"shape": [1], "data": [0.0]}}}}
            ]}},
            "rmir": {{"virtual_updates": 0, "selected": 0}},
            "cursor": {{"period": 0, "started": false, "epoch": 0, "step": 0,
                        "order": [], "order_valid": false, "loss_curve": [],
                        "epoch_loss": 0, "batches": 0, "global_step": 0, "sets": []}},
            "periods_seen": 0
        }}}}"#
    );
    let err = load_text("replay-overflow", &overflow);
    assert!(matches!(err, PersistError::Format(_)), "{err}");
    assert!(err.to_string().contains("capacity"), "{err}");

    // All-zero RNG state would wedge xoshiro forever.
    let zero_rng = overflow
        .replace(r#"["1", "0", "0", "0"]"#, r#"["0", "0", "0", "0"]"#)
        .replace("\"capacity\": 1", "\"capacity\": 4");
    let err = load_text("zero-rng", &zero_rng);
    assert!(matches!(err, PersistError::Format(_)), "{err}");
    assert!(err.to_string().contains("zero"), "{err}");

    // Unpaired Adam moments.
    let unpaired = r#"{"version": 2, "description": "", "store": {"params": []},
        "pipeline": {"optimizer": {"t": 1,
            "m": [{"shape": [1], "data": [0.0]}], "v": []},
        "rng": ["1", "0", "0", "0"],
        "replay": {"capacity": 4, "samples": []},
        "rmir": {"virtual_updates": 0, "selected": 0},
        "cursor": {"period": 0, "started": false, "epoch": 0, "step": 0,
                   "order": [], "order_valid": false, "loss_curve": [],
                   "epoch_loss": 0, "batches": 0, "global_step": 0, "sets": []},
        "periods_seen": 0}}"#;
    let err = load_text("unpaired-adam", unpaired);
    assert!(matches!(err, PersistError::Format(_)), "{err}");

    // Inverted normalizer statistics.
    let bad_norm = unpaired.replace(
        r#""m": [{"shape": [1], "data": [0.0]}], "v": []"#,
        r#""m": [], "v": []"#,
    );
    let bad_norm = bad_norm.replace(
        r#""periods_seen": 0"#,
        r#""periods_seen": 0, "normalizer": {"mins": [2.0], "maxs": [1.0]}"#,
    );
    let err = load_text("bad-norm", &bad_norm);
    assert!(matches!(err, PersistError::Format(_)), "{err}");
    assert!(err.to_string().contains("min"), "{err}");
}
