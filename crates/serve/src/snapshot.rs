//! Immutable model snapshots: the unit of hot-swap.

use std::sync::{Arc, Mutex};

use urcl_core::persist::{copy_store_checked, Checkpoint};
use urcl_models::Backbone;
use urcl_stdata::Normalizer;
use urcl_tensor::{ExecPlan, ParamStore, Tensor};

use crate::server::ServeError;

/// One immutable, self-contained serving state: trained parameters plus
/// the normalizer statistics that map physical units into the model's
/// normalized input space and back.
///
/// Snapshots are built from `urcl-ckpt-v2` checkpoints, validated against
/// the server's parameter-layout template, and shared behind an
/// [`std::sync::Arc`]: a hot-swap replaces which snapshot *new* batches
/// see, while any batch already holding the `Arc` finishes on the old
/// one. A snapshot is never mutated after construction.
pub struct ModelSnapshot {
    store: ParamStore,
    normalizer: Normalizer,
    description: String,
    generation: u64,
    /// Forward-only [`ExecPlan`]s compiled lazily and shared across every
    /// shard thread holding this snapshot. Plans are batch-polymorphic,
    /// so the first batch's compile serves every admission-controlled
    /// batch size; the list grows only if poly compilation degrades to
    /// mono for an architecture. Parameters are immutable for the
    /// snapshot's lifetime, so a plan never goes stale; it dies with the
    /// snapshot on hot-swap.
    plans: Mutex<Vec<Arc<ExecPlan>>>,
}

impl ModelSnapshot {
    /// Builds a snapshot from a loaded checkpoint.
    ///
    /// `template` supplies the expected parameter layout (the same
    /// architecture the server's backbone was constructed against); the
    /// checkpoint must match it exactly (count, names, shapes) and must
    /// carry normalizer statistics — i.e. be a full-pipeline (v2) save,
    /// not a params-only one.
    pub fn from_checkpoint(
        ckpt: &Checkpoint,
        template: &ParamStore,
        generation: u64,
    ) -> Result<Self, ServeError> {
        let normalizer = ckpt
            .normalizer()
            .ok_or_else(|| {
                ServeError::Reload(
                    "checkpoint carries no normalizer statistics (params-only save?)"
                        .to_string(),
                )
            })?
            .clone();
        let mut store = template.clone();
        copy_store_checked(&ckpt.store, &mut store)
            .map_err(|e| ServeError::Reload(e.to_string()))?;
        Ok(Self {
            store,
            normalizer,
            description: ckpt.description.clone(),
            generation,
            plans: Mutex::new(Vec::new()),
        })
    }

    /// Returns a forward-only plan accepting `x`, compiling on first
    /// sight ([`Backbone::compile_forward`]): one batch-polymorphic plan
    /// replays at every batch size the batcher forms. `x` itself seeds
    /// the recording; only its shape matters.
    pub fn forward_plan<B: Backbone + ?Sized>(&self, model: &B, x: &Tensor) -> Arc<ExecPlan> {
        let mut plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(plan) = plans.iter().find(|p| p.accepts(&[x])) {
            return Arc::clone(plan);
        }
        let _compile_sp = urcl_trace::span("plan_compile");
        let plan = Arc::new(model.compile_forward(&self.store, x));
        plans.push(Arc::clone(&plan));
        plan
    }

    /// The trained parameters this snapshot serves with.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// The normalizer mapping physical units to model space and back.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// The checkpoint's free-form description (e.g. "after I3_set").
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Monotonic swap counter: each successful reload publishes a
    /// snapshot with a higher generation, so responses can be traced back
    /// to the checkpoint that produced them.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl std::fmt::Debug for ModelSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelSnapshot")
            .field("generation", &self.generation)
            .field("description", &self.description)
            .field("params", &self.store.len())
            .field("channels", &self.normalizer.num_channels())
            .finish()
    }
}
