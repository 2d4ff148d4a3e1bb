//! Immutable model snapshots: the unit of hot-swap.

use std::sync::{Arc, OnceLock};

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
    /// The cell of the forward-only [`ExecPlan`], compiled lazily and
    /// shared across every worker thread holding this snapshot. It is
    /// batch-polymorphic, so the first batch's compile serves every
    /// admission-controlled batch size. A tenant hands every snapshot it
    /// loads the same cell, so a hot swap loads weights and never
    /// recompiles: a plan binds its parameters from the store each replay
    /// passes, and every snapshot matches the tenant's one template
    /// layout.
    pub(crate) plan: Arc<OnceLock<ExecPlan>>,
}

impl ModelSnapshot {
    /// Builds a snapshot from a loaded checkpoint.
    ///
    /// `template` supplies the expected parameter layout (the same
    /// architecture the server's backbone was constructed against); the
    /// checkpoint must match it exactly (count, names, shapes) and must
    /// carry normalizer statistics — i.e. be a full-pipeline (v2) save,
    /// not a params-only one. The snapshot starts a forward-plan cell of
    /// its own.
    pub fn from_checkpoint(
        ckpt: &Checkpoint,
        template: &ParamStore,
        generation: u64,
    ) -> Result<Self, ServeError> {
        Self::sharing_plan(ckpt, template, generation, Arc::default())
    }

    /// [`Self::from_checkpoint`] into the forward-plan cell `plan`, which
    /// every snapshot built from the same template may share.
    pub(crate) fn sharing_plan(
        ckpt: &Checkpoint,
        template: &ParamStore,
        generation: u64,
        plan: Arc<OnceLock<ExecPlan>>,
    ) -> Result<Self, ServeError> {
        let normalizer = ckpt
            .normalizer()
            .ok_or_else(|| {
                ServeError::Reload(
                    "checkpoint carries no normalizer statistics (params-only save?)".to_string(),
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
            plan,
        })
    }

    /// The snapshot's forward-only plan, compiled from `x` on first use
    /// of its cell ([`Backbone::compile_forward`]): one batch-polymorphic
    /// plan replays at every batch size the batcher forms, on every
    /// snapshot sharing the cell. `x` itself seeds the recording; only
    /// its shape matters.
    pub fn forward_plan<B: Backbone + ?Sized>(&self, model: &B, x: &Tensor) -> &ExecPlan {
        self.plan.get_or_init(|| {
            let _compile_sp = urcl_trace::span("plan_compile");
            model.compile_forward(&self.store, x)
        })
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
