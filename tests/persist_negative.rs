//! Negative-path coverage for `urcl::core::persist`: every way a
//! checkpoint can be wrong must surface as a typed [`PersistError`], never
//! a panic and never a silently corrupted model.

use urcl::core::persist::{
    load_checkpoint, load_checkpoint_into, save_checkpoint, PersistError, CHECKPOINT_VERSION,
};
use urcl::tensor::{ParamStore, Tensor};

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("urcl-neg-{}-{name}.json", std::process::id()))
}

/// Writes `text`, loads it, cleans up, and returns the error.
fn load_text(name: &str, text: &str) -> PersistError {
    let path = temp_path(name);
    std::fs::write(&path, text).unwrap();
    let err = load_checkpoint(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    err
}

fn small_store() -> ParamStore {
    let mut store = ParamStore::new();
    store.add("enc.w", Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
    store.add("enc.b", Tensor::from_vec(vec![0.5], &[1]));
    store
}

#[test]
fn truncated_file_is_a_format_error() {
    let path = temp_path("trunc");
    save_checkpoint(&path, "will be torn", &small_store()).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    // Cut the document mid-token, as a crash mid-write would.
    std::fs::write(&path, &text[..text.len() * 2 / 3]).unwrap();
    let err = load_checkpoint(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
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
fn v1_params_only_checkpoint_loads_forward_compatibly() {
    // A handcrafted v1 document — written before the pipeline section
    // existed — must still load, with `pipeline: None`.
    let path = temp_path("v1fwd");
    std::fs::write(
        &path,
        r#"{"version": 1, "description": "pre-v2", "store": {"params": [
            {"name": "enc.w", "shape": [2, 2], "data": [1.0, 2.0, 3.0, 4.0]},
            {"name": "enc.b", "shape": [1], "data": [0.5]}
        ]}}"#,
    )
    .unwrap();
    let mut model = small_store();
    // Zero the live store so the copy is observable.
    let ids: Vec<_> = model.ids().collect();
    for id in &ids {
        for v in model.value_mut(*id).data_mut() {
            *v = 0.0;
        }
    }
    let ckpt = load_checkpoint_into(&path, &mut model).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(ckpt.version, 1);
    assert!(ckpt.pipeline.is_none());
    assert_eq!(model.value(ids[0]).data(), &[1.0, 2.0, 3.0, 4.0]);
    assert_eq!(model.value(ids[1]).data(), &[0.5]);
}

#[test]
fn shape_mismatch_against_live_model_is_typed_and_nondestructive() {
    let path = temp_path("mismatch-shape");
    let mut wrong = ParamStore::new();
    wrong.add("enc.w", Tensor::from_vec(vec![1.0, 2.0], &[2])); // [2] vs [2, 2]
    wrong.add("enc.b", Tensor::from_vec(vec![0.5], &[1]));
    save_checkpoint(&path, "", &wrong).unwrap();

    let mut model = small_store();
    let before: Vec<Vec<f32>> = model
        .ids()
        .map(|i| model.value(i).data().to_vec())
        .collect();
    let err = load_checkpoint_into(&path, &mut model).unwrap_err();
    std::fs::remove_file(&path).ok();
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
    let path = temp_path("mismatch-count");
    let mut one = ParamStore::new();
    one.add("enc.w", Tensor::from_vec(vec![0.0; 4], &[2, 2]));
    save_checkpoint(&path, "", &one).unwrap();
    let mut model = small_store();
    assert!(matches!(
        load_checkpoint_into(&path, &mut model).unwrap_err(),
        PersistError::Mismatch(_)
    ));

    save_checkpoint(&path, "", &small_store()).unwrap();
    // Same shapes, different name in slot 0.
    let mut other = ParamStore::new();
    other.add("dec.w", Tensor::from_vec(vec![0.0; 4], &[2, 2]));
    other.add("enc.b", Tensor::from_vec(vec![0.0], &[1]));
    let err = load_checkpoint_into(&path, &mut other).unwrap_err();
    std::fs::remove_file(&path).ok();
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
