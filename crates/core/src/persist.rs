//! Checkpointing: save and restore training state as JSON.
//!
//! A streaming deployment periodically persists its state between
//! incremental sets so a crashed process can pick up mid-stream without
//! retraining — and, crucially for a replay-based method, without losing
//! the replay buffer that *is* the defense against catastrophic
//! forgetting. A checkpoint holds the [`ParamStore`] (names, shapes,
//! values) and, optionally, the [`PipelineState`]: optimizer moments,
//! replay-buffer contents, RMIR statistics, RNG stream, normalizer
//! statistics and the period/epoch/step cursor. The parameters alone are
//! enough to serve forecasts; restoring the pipeline section as well
//! resumes training bitwise-identically to a never-interrupted run
//! (proven by `tests/crash_resume.rs`).
//!
//! The format is a versioned JSON document (`urcl-ckpt-v2`, the only
//! version that loads) so checkpoints stay inspectable with standard
//! tooling; serialization is hand-rolled on [`urcl_json`] — no external
//! crates. [`CheckpointDir`] is the one way to write and read a
//! checkpoint: write-to-temp + fsync + atomic rename, with a rotating
//! `latest`/`previous` pair so a crash mid-write never loses the last
//! good checkpoint. [`copy_store_checked`] is the one layout check
//! between a loaded store and a live model. Save/load spans and byte
//! sizes are recorded in `urcl-trace` (see DESIGN.md §9 for the schema).

use std::io::Write as _;
use std::path::{Path, PathBuf};
use urcl_json::Value;
use urcl_stdata::{Normalizer, Sample};
use urcl_tensor::{AdamState, ParamStore, Tensor};

use crate::rmir::RmirStats;
use crate::trainer::{SetReport, TrainCursor, TrainerSnapshot};

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Schema identifier written into every v2 document.
pub const CHECKPOINT_SCHEMA: &str = "urcl-ckpt-v2";

/// Everything beyond the parameters that a resumed process needs: the
/// trainer's mutable state, the dataset normalizer and the streaming
/// cursor of [`crate::pipeline::UrclPipeline`].
#[derive(Clone)]
pub struct PipelineState {
    /// Trainer state: RNG, Adam moments, replay buffer, RMIR stats,
    /// period/epoch/step cursor.
    pub trainer: TrainerSnapshot,
    /// Normalizer statistics (None when no period has been observed).
    pub normalizer: Option<Normalizer>,
    /// Streaming periods consumed by the pipeline.
    pub periods_seen: usize,
}

/// A loaded model checkpoint (always format [`CHECKPOINT_VERSION`]).
pub struct Checkpoint {
    /// Free-form model description (backbone name, dataset, …).
    pub description: String,
    /// The trained parameters.
    pub store: ParamStore,
    /// Full pipeline state; `None` for params-only checkpoints.
    pub pipeline: Option<PipelineState>,
}

impl Checkpoint {
    /// The normalizer statistics carried in the pipeline section, if any.
    ///
    /// This is the piece an inference server needs beyond the parameters:
    /// requests arrive in physical units, the model speaks normalized
    /// units, and the checkpoint is the only place the mapping between
    /// the two is recorded (`urcl-serve` builds its snapshots from it).
    pub fn normalizer(&self) -> Option<&Normalizer> {
        self.pipeline.as_ref().and_then(|p| p.normalizer.as_ref())
    }
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("description", &self.description)
            .field("params", &self.store.len())
            .field("scalars", &self.store.num_scalars())
            .field("full_pipeline", &self.pipeline.is_some())
            .finish()
    }
}

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed JSON, schema mismatch, or a non-finite / inconsistent
    /// payload value.
    Format(String),
    /// The checkpoint's version is not [`CHECKPOINT_VERSION`]: a pre-v2
    /// document, or one written by a newer release.
    Version(u32),
    /// The checkpoint is well-formed but does not fit the model it is
    /// being loaded into (parameter count, name or shape divergence).
    Mismatch(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            PersistError::Format(e) => write!(f, "checkpoint format error: {e}"),
            PersistError::Version(v) => write!(
                f,
                "unsupported checkpoint version {v} (supported: {CHECKPOINT_VERSION})"
            ),
            PersistError::Mismatch(e) => {
                write!(f, "checkpoint does not match the model: {e}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<urcl_json::ParseError> for PersistError {
    fn from(e: urcl_json::ParseError) -> Self {
        PersistError::Format(e.to_string())
    }
}

fn bad(msg: impl Into<String>) -> PersistError {
    PersistError::Format(msg.into())
}

// ------------------------------------------------------------ primitives

fn field<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, PersistError> {
    v.get(key)
        .ok_or_else(|| bad(format!("missing {ctx}.{key}")))
}

fn field_u64(v: &Value, key: &str, ctx: &str) -> Result<u64, PersistError> {
    field(v, key, ctx)?
        .as_u64()
        .ok_or_else(|| bad(format!("{ctx}.{key} must be a non-negative integer")))
}

fn field_bool(v: &Value, key: &str, ctx: &str) -> Result<bool, PersistError> {
    field(v, key, ctx)?
        .as_bool()
        .ok_or_else(|| bad(format!("{ctx}.{key} must be a boolean")))
}

/// Parses an f32 array, rejecting non-finite entries (which serialize as
/// `null` — or sneak in as `1e999`-style overflows) with a typed error.
fn f32_vec(v: &Value, ctx: &str) -> Result<Vec<f32>, PersistError> {
    let arr = v
        .as_array()
        .ok_or_else(|| bad(format!("{ctx} must be an array")))?;
    let mut out = Vec::with_capacity(arr.len());
    for (i, d) in arr.iter().enumerate() {
        let f = d
            .as_f64()
            .ok_or_else(|| bad(format!("{ctx}[{i}] must be a number (NaN/Inf not allowed)")))?;
        if !f.is_finite() {
            return Err(bad(format!("{ctx}[{i}] is non-finite")));
        }
        out.push(f as f32);
    }
    Ok(out)
}

fn usize_vec(v: &Value, ctx: &str) -> Result<Vec<usize>, PersistError> {
    v.as_array()
        .ok_or_else(|| bad(format!("{ctx} must be an array")))?
        .iter()
        .map(|d| d.as_u64().map(|u| u as usize))
        .collect::<Option<_>>()
        .ok_or_else(|| bad(format!("{ctx} entries must be non-negative integers")))
}

fn tensor_to_json(t: &Tensor) -> Value {
    Value::object()
        .with("shape", urcl_json::usize_array(t.shape()))
        .with("data", urcl_json::f32_array(t.data()))
}

fn tensor_from_json(v: &Value, ctx: &str) -> Result<Tensor, PersistError> {
    let shape = usize_vec(field(v, "shape", ctx)?, &format!("{ctx}.shape"))?;
    let data = f32_vec(field(v, "data", ctx)?, &format!("{ctx}.data"))?;
    if data.len() != shape.iter().product::<usize>() {
        return Err(bad(format!("{ctx}: data length does not match shape")));
    }
    Ok(Tensor::from_vec(data, &shape))
}

// ----------------------------------------------------------- store codec

fn store_to_json(store: &ParamStore) -> Value {
    let params: Vec<Value> = store
        .ids()
        .map(|id| {
            let v = store.value(id);
            Value::object()
                .with("name", store.name(id))
                .with("shape", urcl_json::usize_array(v.shape()))
                .with("data", urcl_json::f32_array(v.data()))
        })
        .collect();
    Value::object().with("params", Value::Array(params))
}

fn store_from_json(v: &Value) -> Result<ParamStore, PersistError> {
    let params = field(v, "params", "store")?
        .as_array()
        .ok_or_else(|| bad("store.params must be an array"))?;
    let mut store = ParamStore::new();
    for (i, p) in params.iter().enumerate() {
        let ctx = format!("store.params[{i}]");
        let name = field(p, "name", &ctx)?
            .as_str()
            .ok_or_else(|| bad(format!("{ctx}.name must be a string")))?
            .to_string();
        let t = tensor_from_json(p, &ctx)?;
        store.add(name, t);
    }
    Ok(store)
}

// -------------------------------------------------- pipeline-state codec

fn adam_to_json(s: &AdamState) -> Value {
    Value::object()
        .with("t", s.t)
        .with("m", Value::Array(s.m.iter().map(tensor_to_json).collect()))
        .with("v", Value::Array(s.v.iter().map(tensor_to_json).collect()))
}

fn adam_from_json(v: &Value) -> Result<AdamState, PersistError> {
    let t = field_u64(v, "t", "optimizer")?;
    let parse_moments = |key: &str| -> Result<Vec<Tensor>, PersistError> {
        field(v, key, "optimizer")?
            .as_array()
            .ok_or_else(|| bad(format!("optimizer.{key} must be an array")))?
            .iter()
            .enumerate()
            .map(|(i, t)| tensor_from_json(t, &format!("optimizer.{key}[{i}]")))
            .collect()
    };
    let m = parse_moments("m")?;
    let mv = parse_moments("v")?;
    if m.len() != mv.len() {
        return Err(bad("optimizer.m and optimizer.v differ in length"));
    }
    Ok(AdamState { t, m, v: mv })
}

/// RNG words are 64-bit; JSON numbers are f64 (53-bit mantissa), so the
/// state serializes as fixed-width hex strings to stay lossless.
fn rng_to_json(state: [u64; 4]) -> Value {
    Value::Array(
        state
            .iter()
            .map(|w| Value::Str(format!("{w:016x}")))
            .collect(),
    )
}

fn rng_from_json(v: &Value) -> Result<[u64; 4], PersistError> {
    let arr = v
        .as_array()
        .ok_or_else(|| bad("rng must be an array of 4 hex words"))?;
    if arr.len() != 4 {
        return Err(bad("rng must hold exactly 4 words"));
    }
    let mut out = [0u64; 4];
    for (i, w) in arr.iter().enumerate() {
        let s = w
            .as_str()
            .ok_or_else(|| bad(format!("rng[{i}] must be a hex string")))?;
        out[i] = u64::from_str_radix(s, 16)
            .map_err(|_| bad(format!("rng[{i}] is not valid hex: {s:?}")))?;
    }
    if out.iter().all(|&w| w == 0) {
        return Err(bad("rng state must not be all zero"));
    }
    Ok(out)
}

fn sample_to_json(s: &Sample) -> Value {
    Value::object()
        .with("x", tensor_to_json(&s.x))
        .with("y", tensor_to_json(&s.y))
}

fn sample_from_json(v: &Value, ctx: &str) -> Result<Sample, PersistError> {
    Ok(Sample {
        x: tensor_from_json(field(v, "x", ctx)?, &format!("{ctx}.x"))?,
        y: tensor_from_json(field(v, "y", ctx)?, &format!("{ctx}.y"))?,
    })
}

fn set_report_to_json(s: &SetReport) -> Value {
    use urcl_json::ToJson;
    s.to_json()
}

fn set_report_from_json(v: &Value, ctx: &str) -> Result<SetReport, PersistError> {
    let num = |key: &str| -> Result<f64, PersistError> {
        field(v, key, ctx)?
            .as_f64()
            .ok_or_else(|| bad(format!("{ctx}.{key} must be a number")))
    };
    Ok(SetReport {
        name: field(v, "name", ctx)?
            .as_str()
            .ok_or_else(|| bad(format!("{ctx}.name must be a string")))?
            .to_string(),
        mae: num("mae")? as f32,
        rmse: num("rmse")? as f32,
        train_seconds_per_epoch: num("train_seconds_per_epoch")?,
        epochs: field_u64(v, "epochs", ctx)? as usize,
        infer_seconds_per_obs: num("infer_seconds_per_obs")?,
        loss_curve: f32_vec(field(v, "loss_curve", ctx)?, &format!("{ctx}.loss_curve"))?,
    })
}

fn cursor_to_json(c: &TrainCursor) -> Value {
    Value::object()
        .with("period", c.period)
        .with("started", c.started)
        .with("epoch", c.epoch)
        .with("step", c.step)
        .with("order", urcl_json::usize_array(&c.order))
        .with("order_valid", c.order_valid)
        .with("loss_curve", urcl_json::f32_array(&c.loss_curve))
        .with("epoch_loss", c.epoch_loss)
        .with("batches", c.batches)
        .with("global_step", c.global_step)
        .with(
            "sets",
            Value::Array(c.sets.iter().map(set_report_to_json).collect()),
        )
}

fn cursor_from_json(v: &Value) -> Result<TrainCursor, PersistError> {
    let epoch_loss = field(v, "epoch_loss", "cursor")?
        .as_f64()
        .ok_or_else(|| bad("cursor.epoch_loss must be a number"))? as f32;
    let sets = field(v, "sets", "cursor")?
        .as_array()
        .ok_or_else(|| bad("cursor.sets must be an array"))?
        .iter()
        .enumerate()
        .map(|(i, s)| set_report_from_json(s, &format!("cursor.sets[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TrainCursor {
        period: field_u64(v, "period", "cursor")? as usize,
        started: field_bool(v, "started", "cursor")?,
        epoch: field_u64(v, "epoch", "cursor")? as usize,
        step: field_u64(v, "step", "cursor")? as usize,
        order: usize_vec(field(v, "order", "cursor")?, "cursor.order")?,
        order_valid: field_bool(v, "order_valid", "cursor")?,
        loss_curve: f32_vec(field(v, "loss_curve", "cursor")?, "cursor.loss_curve")?,
        epoch_loss,
        batches: field_u64(v, "batches", "cursor")? as usize,
        global_step: field_u64(v, "global_step", "cursor")?,
        sets,
    })
}

fn pipeline_to_json(p: &PipelineState) -> Value {
    let replay: Vec<Value> = p.trainer.replay.iter().map(sample_to_json).collect();
    let mut doc = Value::object()
        .with("optimizer", adam_to_json(&p.trainer.adam))
        .with("rng", rng_to_json(p.trainer.rng_state))
        .with(
            "replay",
            Value::object()
                .with("capacity", p.trainer.replay_capacity)
                .with("samples", Value::Array(replay)),
        )
        .with(
            "rmir",
            Value::object()
                .with("virtual_updates", p.trainer.rmir.virtual_updates)
                .with("selected", p.trainer.rmir.selected),
        )
        .with("cursor", cursor_to_json(&p.trainer.cursor))
        .with("periods_seen", p.periods_seen);
    if let Some(norm) = &p.normalizer {
        doc.set(
            "normalizer",
            Value::object()
                .with("mins", urcl_json::f32_array(norm.mins()))
                .with("maxs", urcl_json::f32_array(norm.maxs())),
        );
    }
    doc
}

fn pipeline_from_json(v: &Value) -> Result<PipelineState, PersistError> {
    let replay_v = field(v, "replay", "pipeline")?;
    let capacity = field_u64(replay_v, "capacity", "pipeline.replay")? as usize;
    if capacity == 0 {
        return Err(bad("pipeline.replay.capacity must be positive"));
    }
    let samples = field(replay_v, "samples", "pipeline.replay")?
        .as_array()
        .ok_or_else(|| bad("pipeline.replay.samples must be an array"))?
        .iter()
        .enumerate()
        .map(|(i, s)| sample_from_json(s, &format!("pipeline.replay.samples[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    if samples.len() > capacity {
        return Err(bad(format!(
            "pipeline.replay holds {} samples but capacity is {capacity}",
            samples.len()
        )));
    }
    let rmir_v = field(v, "rmir", "pipeline")?;
    let rmir = RmirStats {
        virtual_updates: field_u64(rmir_v, "virtual_updates", "pipeline.rmir")?,
        selected: field_u64(rmir_v, "selected", "pipeline.rmir")?,
    };
    let normalizer = match v.get("normalizer") {
        None | Some(Value::Null) => None,
        Some(n) => {
            let mins = f32_vec(field(n, "mins", "normalizer")?, "normalizer.mins")?;
            let maxs = f32_vec(field(n, "maxs", "normalizer")?, "normalizer.maxs")?;
            if mins.len() != maxs.len() || mins.is_empty() {
                return Err(bad("normalizer mins/maxs must be non-empty pairs"));
            }
            for (ch, (lo, hi)) in mins.iter().zip(&maxs).enumerate() {
                if lo >= hi {
                    return Err(bad(format!(
                        "normalizer channel {ch} has min {lo} >= max {hi}"
                    )));
                }
            }
            Some(Normalizer::from_stats(mins, maxs))
        }
    };
    Ok(PipelineState {
        trainer: TrainerSnapshot {
            rng_state: rng_from_json(field(v, "rng", "pipeline")?)?,
            adam: adam_from_json(field(v, "optimizer", "pipeline")?)?,
            replay_capacity: capacity,
            replay: samples,
            rmir,
            cursor: cursor_from_json(field(v, "cursor", "pipeline")?)?,
        },
        normalizer,
        periods_seen: field_u64(v, "periods_seen", "pipeline")? as usize,
    })
}

// ------------------------------------------------------------- documents

fn checkpoint_to_json(
    description: &str,
    store: &ParamStore,
    pipeline: Option<&PipelineState>,
) -> Value {
    let mut doc = Value::object()
        .with("version", CHECKPOINT_VERSION)
        .with("schema", CHECKPOINT_SCHEMA)
        .with("description", description)
        .with("store", store_to_json(store));
    if let Some(p) = pipeline {
        doc.set("pipeline", pipeline_to_json(p));
    }
    doc
}

fn checkpoint_from_json(doc: &Value) -> Result<Checkpoint, PersistError> {
    let version = doc
        .get("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| bad("missing version field"))?;
    if version != u64::from(CHECKPOINT_VERSION) {
        return Err(PersistError::Version(
            u32::try_from(version).unwrap_or(u32::MAX),
        ));
    }
    let description = doc
        .get("description")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    let store = store_from_json(field(doc, "store", "checkpoint")?)?;
    // Params-only saves omit the pipeline section.
    let pipeline = match doc.get("pipeline") {
        None | Some(Value::Null) => None,
        Some(p) => Some(pipeline_from_json(p)?),
    };
    Ok(Checkpoint {
        description,
        store,
        pipeline,
    })
}

// ------------------------------------------------------------------- I/O

/// Reads and validates the checkpoint at `path` (one slot of a
/// [`CheckpointDir`]).
fn load_checkpoint(path: &Path) -> Result<Checkpoint, PersistError> {
    let _sp = urcl_trace::span("checkpoint_load");
    let json = std::fs::read_to_string(path)?;
    urcl_trace::counter_inc("checkpoint.loads");
    urcl_trace::counter_add("checkpoint.bytes_read", json.len() as u64);
    urcl_trace::histogram_record("checkpoint.load_bytes", json.len() as f64);
    let doc = Value::parse(&json)?;
    checkpoint_from_json(&doc)
}

/// Copies parameter values from a checkpointed store into a live one after
/// validating the layouts agree (count, names and shapes, in order). The
/// destination is untouched on [`PersistError::Mismatch`].
pub fn copy_store_checked(src: &ParamStore, dst: &mut ParamStore) -> Result<(), PersistError> {
    if src.len() != dst.len() {
        return Err(PersistError::Mismatch(format!(
            "checkpoint has {} parameters, model has {}",
            src.len(),
            dst.len()
        )));
    }
    for (a, b) in src.ids().zip(dst.ids()) {
        if src.name(a) != dst.name(b) {
            return Err(PersistError::Mismatch(format!(
                "parameter name {:?} in checkpoint, {:?} in model",
                src.name(a),
                dst.name(b)
            )));
        }
        if src.value(a).shape() != dst.value(b).shape() {
            return Err(PersistError::Mismatch(format!(
                "parameter {:?} has shape {:?} in checkpoint, {:?} in model",
                dst.name(b),
                src.value(a).shape(),
                dst.value(b).shape()
            )));
        }
    }
    dst.copy_values_from(src);
    Ok(())
}

// ----------------------------------------------------- atomic durability

/// Identity of one published `latest.ckpt`: equal fingerprints mean the
/// checkpoint has not been replaced since it was last inspected. See
/// [`CheckpointDir::fingerprint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointFingerprint {
    /// Document size in bytes.
    pub len: u64,
    /// Filesystem modification time of `latest.ckpt`.
    pub modified: std::time::SystemTime,
}

/// A checkpoint directory with crash-safe rotation.
///
/// Saves follow the classic atomic protocol: the document is written to a
/// temp file and fsynced, the current `latest.ckpt` (if any) is renamed to
/// `previous.ckpt`, and the temp file is renamed to `latest.ckpt` — both
/// renames are atomic on POSIX filesystems. A crash at any point leaves
/// either the old `latest`, or `previous` + a complete new `latest`, or
/// `previous` alone — never zero loadable checkpoints (after the first
/// two saves). [`CheckpointDir::load`] transparently falls back from a
/// missing or torn `latest` to `previous`.
pub struct CheckpointDir {
    dir: PathBuf,
}

impl CheckpointDir {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, PersistError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The directory backing this rotation.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the newest checkpoint.
    pub fn latest_path(&self) -> PathBuf {
        self.dir.join("latest.ckpt")
    }

    /// Path of the rotated-out predecessor.
    pub fn previous_path(&self) -> PathBuf {
        self.dir.join("previous.ckpt")
    }

    fn temp_path(&self) -> PathBuf {
        self.dir
            .join(format!("inflight-{}.tmp", std::process::id()))
    }

    /// Atomically saves a checkpoint (full-pipeline when `pipeline` is
    /// given, params-only otherwise), rotating `latest` → `previous`.
    /// Returns the document size in bytes.
    pub fn save(
        &self,
        description: &str,
        store: &ParamStore,
        pipeline: Option<&PipelineState>,
    ) -> Result<u64, PersistError> {
        let _sp = urcl_trace::span("checkpoint_save");
        let text = checkpoint_to_json(description, store, pipeline).to_string_compact();
        let tmp = self.temp_path();
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            // Data must be durable before the rename publishes it.
            f.sync_all()?;
        }
        let latest = self.latest_path();
        if latest.exists() {
            std::fs::rename(&latest, self.previous_path())?;
        }
        std::fs::rename(&tmp, &latest)?;
        // Make the renames themselves durable.
        #[cfg(unix)]
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        urcl_trace::counter_inc("checkpoint.saves");
        urcl_trace::counter_add("checkpoint.bytes_written", text.len() as u64);
        urcl_trace::histogram_record("checkpoint.save_bytes", text.len() as f64);
        Ok(text.len() as u64)
    }

    /// Cheap change-detection fingerprint of `latest.ckpt` (byte length +
    /// modification time), or `None` when no `latest` exists yet.
    ///
    /// A poller (such as the `urcl-serve` hot-reload thread) compares
    /// fingerprints between ticks and only pays for a full
    /// [`CheckpointDir::load`] when the trainer has actually published a
    /// new checkpoint. Because saves go through an atomic rename, a
    /// changed fingerprint always refers to a *complete* document.
    pub fn fingerprint(&self) -> Option<CheckpointFingerprint> {
        let meta = std::fs::metadata(self.latest_path()).ok()?;
        Some(CheckpointFingerprint {
            len: meta.len(),
            modified: meta.modified().ok()?,
        })
    }

    /// Loads the newest loadable checkpoint: `latest.ckpt`, falling back
    /// to `previous.ckpt` when `latest` is missing or torn (e.g. the
    /// process died mid-write on a filesystem without atomic-rename
    /// guarantees). Returns the error from `latest` when both fail.
    pub fn load(&self) -> Result<Checkpoint, PersistError> {
        match load_checkpoint(&self.latest_path()) {
            Ok(ckpt) => Ok(ckpt),
            Err(primary) => match load_checkpoint(&self.previous_path()) {
                Ok(ckpt) => {
                    urcl_trace::counter_inc("checkpoint.fallback_loads");
                    Ok(ckpt)
                }
                Err(_) => Err(primary),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urcl_tensor::{Rng, Tensor};

    /// A fresh, empty checkpoint directory for one test.
    fn temp_dir(name: &str) -> CheckpointDir {
        let dir = std::env::temp_dir().join(format!("urcl-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        CheckpointDir::new(dir).unwrap()
    }

    /// Publishes `text` as the directory's only checkpoint and loads it.
    fn load_text(name: &str, text: &str) -> Result<Checkpoint, PersistError> {
        let slots = temp_dir(name);
        std::fs::write(slots.latest_path(), text).unwrap();
        let loaded = slots.load();
        std::fs::remove_dir_all(slots.dir()).ok();
        loaded
    }

    /// Saves `store` params-only and loads it back.
    fn roundtrip(name: &str, description: &str, store: &ParamStore) -> Checkpoint {
        let slots = temp_dir(name);
        slots.save(description, store, None).unwrap();
        let ckpt = slots.load().unwrap();
        std::fs::remove_dir_all(slots.dir()).ok();
        ckpt
    }

    #[test]
    fn roundtrip_preserves_values() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(1);
        let w = store.add("enc.w", rng.glorot(&[4, 3]));
        let b = store.add("enc.b", Tensor::from_vec(vec![0.5, -0.5], &[2]));
        let ckpt = roundtrip("roundtrip", "unit test", &store);
        assert_eq!(ckpt.description, "unit test");
        assert!(ckpt.pipeline.is_none());
        assert_eq!(ckpt.store.len(), 2);
        assert_eq!(ckpt.store.value(w), store.value(w));
        assert_eq!(ckpt.store.value(b), store.value(b));
        assert_eq!(ckpt.store.name(w), "enc.w");
    }

    #[test]
    fn restored_model_predicts_identically() {
        use urcl_graph::random_geometric;
        use urcl_models::{Backbone, GraphWaveNet, GwnConfig};
        use urcl_tensor::autodiff::{Session, Tape};

        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(2);
        let net = random_geometric(4, 0.5, &mut rng);
        let mut cfg = GwnConfig::small(4, 1, 6, 1);
        cfg.layers = 2;
        let model = GraphWaveNet::new(&mut store, &mut rng, &net, cfg);
        let x = rng.uniform_tensor(&[2, 6, 4, 1], 0.0, 1.0);

        let predict = |s: &ParamStore| {
            let tape = Tape::new();
            let mut sess = Session::new(&tape, s);
            let xv = sess.input(x.clone());
            model.forward(&mut sess, xv).value()
        };
        let before = predict(&store);
        let restored = roundtrip("model", "gwn", &store).store;
        assert_eq!(predict(&restored), before);
    }

    #[test]
    fn wrong_version_rejected() {
        let err = load_text(
            "badver",
            r#"{"version": 999, "description": "", "store": {"params": []}}"#,
        )
        .unwrap_err();
        assert!(matches!(err, PersistError::Version(999)));
    }

    #[test]
    fn malformed_json_rejected() {
        let err = load_text("malformed", "not json").unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
    }

    #[test]
    fn missing_file_is_io_error() {
        let slots = temp_dir("missing");
        let err = slots.load().unwrap_err();
        std::fs::remove_dir_all(slots.dir()).ok();
        assert!(matches!(err, PersistError::Io(_)));
    }

    #[test]
    fn checkpoint_values_roundtrip_bitwise() {
        // JSON float formatting must be shortest-roundtrip: reloaded
        // parameters are bit-identical, not merely close.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from_u64(3);
        let w = store.add("w", rng.normal_tensor(&[7, 5], 0.0, 1.0));
        let restored = roundtrip("bitwise", "", &store).store;
        for (a, b) in restored.value(w).data().iter().zip(store.value(w).data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rotation_keeps_previous_on_torn_latest() {
        let dir = std::env::temp_dir().join(format!("urcl-test-{}-rotate", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let slots = CheckpointDir::new(&dir).unwrap();

        let mut store = ParamStore::new();
        store.add("w", Tensor::from_vec(vec![1.0], &[1]));
        slots.save("first", &store, None).unwrap();
        store.value_mut(store.ids().next().unwrap()).data_mut()[0] = 2.0;
        slots.save("second", &store, None).unwrap();
        assert!(slots.previous_path().exists());

        // Simulate a torn write: truncate latest mid-document.
        let text = std::fs::read_to_string(slots.latest_path()).unwrap();
        std::fs::write(slots.latest_path(), &text[..text.len() / 2]).unwrap();

        // The rotation still serves the last good checkpoint ("first").
        let ckpt = slots.load().unwrap();
        assert_eq!(ckpt.description, "first");
        std::fs::remove_dir_all(&dir).ok();
    }
}
